package alloc

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"proclus/internal/randx"
)

func countSelected(sel [][]int) int {
	n := 0
	for _, row := range sel {
		n += len(row)
	}
	return n
}

func sumSelected(scores [][]float64, sel [][]int) float64 {
	var s float64
	for i, row := range sel {
		for _, j := range row {
			s += scores[i][j]
		}
	}
	return s
}

func TestPickSmallestBasic(t *testing.T) {
	scores := [][]float64{
		{5, 1, 9, 2}, // row minima: 1(col1), 2(col3)
		{8, 7, 0, 3}, // row minima: 0(col2), 3(col3)
	}
	sel, err := PickSmallest(scores, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if countSelected(sel) != 5 {
		t.Fatalf("selected %d cells, want 5", countSelected(sel))
	}
	// Preallocated: (0,1),(0,3),(1,2),(1,3). Fifth smallest remaining: 5 at (0,0).
	want := [][]int{{0, 1, 3}, {2, 3}}
	for i := range want {
		if len(sel[i]) != len(want[i]) {
			t.Fatalf("row %d selection %v, want %v", i, sel[i], want[i])
		}
		for j := range want[i] {
			if sel[i][j] != want[i][j] {
				t.Fatalf("row %d selection %v, want %v", i, sel[i], want[i])
			}
		}
	}
}

func TestPickSmallestExactMinimum(t *testing.T) {
	scores := [][]float64{{3, 1, 2}, {9, 9, 0}}
	sel, err := PickSmallest(scores, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range sel {
		if len(row) != 2 {
			t.Fatalf("row %d got %d cells, want exactly 2", i, len(row))
		}
	}
}

func TestPickSmallestWholeMatrix(t *testing.T) {
	scores := [][]float64{{1, 2}, {3, 4}}
	sel, err := PickSmallest(scores, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if countSelected(sel) != 4 {
		t.Fatalf("want all 4 cells, got %v", sel)
	}
}

func TestPickSmallestErrors(t *testing.T) {
	ok := [][]float64{{1, 2}, {3, 4}}
	cases := []struct {
		name   string
		scores [][]float64
		total  int
		min    int
	}{
		{"empty matrix", nil, 1, 0},
		{"ragged", [][]float64{{1}, {2, 3}}, 2, 1},
		{"negative min", ok, 2, -1},
		{"min exceeds cols", ok, 6, 3},
		{"budget below min", ok, 3, 2},
		{"budget above size", ok, 5, 1},
	}
	for _, c := range cases {
		if _, err := PickSmallest(c.scores, c.total, c.min); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestPickSmallestNegativeScores(t *testing.T) {
	// PROCLUS feeds Z-scores, which are frequently negative; the most
	// negative cells must win.
	scores := [][]float64{
		{-3, 0.5, -1, 2},
		{1, -2, 0, 4},
	}
	sel, err := PickSmallest(scores, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := sumSelected(scores, sel)
	if want := -3.0 + -1 + -2 + 0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v (selection %v)", got, want, sel)
	}
}

// bruteForce enumerates every feasible selection and returns the minimal
// achievable score sum. Exponential; only for tiny matrices.
func bruteForce(scores [][]float64, total, minPerRow int) float64 {
	rows, cols := len(scores), len(scores[0])
	cells := rows * cols
	best := math.Inf(1)
	for mask := 0; mask < 1<<cells; mask++ {
		if popcount(mask) != total {
			continue
		}
		perRow := make([]int, rows)
		var sum float64
		for c := 0; c < cells; c++ {
			if mask&(1<<c) != 0 {
				r := c / cols
				perRow[r]++
				sum += scores[r][c%cols]
			}
		}
		feasible := true
		for _, n := range perRow {
			if n < minPerRow {
				feasible = false
				break
			}
		}
		if feasible && sum < best {
			best = sum
		}
	}
	return best
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// sortReference is PickSmallest as two full sorts under less: each
// row's cells sorted, its first minPerRow taken, then every cell left
// over sorted and the first total − rows·minPerRow taken. It returns
// the chosen cells' columns per row, ascending.
func sortReference(scores [][]float64, total, minPerRow int) [][]int {
	var rest []candidate
	chosen := make([][]bool, len(scores))
	for i, r := range scores {
		chosen[i] = make([]bool, len(r))
		row := make([]candidate, len(r))
		for j, v := range r {
			row[j] = candidate{row: i, col: j, score: v}
		}
		slices.SortFunc(row, compare)
		for _, c := range row[:minPerRow] {
			chosen[i][c.col] = true
		}
		rest = append(rest, row[minPerRow:]...)
	}
	slices.SortFunc(rest, compare)
	for _, c := range rest[:total-len(scores)*minPerRow] {
		chosen[c.row][c.col] = true
	}
	sel := make([][]int, len(scores))
	for i, row := range chosen {
		for j, ok := range row {
			if ok {
				sel[i] = append(sel[i], j)
			}
		}
	}
	return sel
}

// scoreMatrix draws a rows×cols matrix from draw, replacing every cell
// of a row with NaN with probability nanRows, as a Z row of an
// overflowing locality is.
func scoreMatrix(r *randx.Rand, rows, cols int, nanRows float64, draw func() float64) [][]float64 {
	scores := make([][]float64, rows)
	for i := range scores {
		scores[i] = make([]float64, cols)
		nan := r.Float64() < nanRows
		for j := range scores[i] {
			scores[i][j] = draw()
			if nan {
				scores[i][j] = math.NaN()
			}
		}
	}
	return scores
}

// hasNaN reports whether any score is NaN.
func hasNaN(scores [][]float64) bool {
	for _, row := range scores {
		for _, v := range row {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}

// TestPickSmallestMatchesBruteForce checks the selection two ways on
// small matrices, at every minPerRow in {0, 1, 2, cols} and every
// budget from rows·minPerRow to rows·cols: it must be the cells the
// sort reference picks under the same order, and on NaN-free scores
// its sum must be the least any feasible selection reaches. Half the
// matrices draw their scores from {−1, 0, 1}, so most cells tie, and a
// fifth of the rows are NaN.
func TestPickSmallestMatchesBruteForce(t *testing.T) {
	r := randx.New(11)
	uniform := func() float64 { return r.Uniform(-5, 5) }
	ternary := func() float64 { return float64(r.Intn(3) - 1) }
	var bruteForced, nanChecked int
	for trial := 0; trial < 200; trial++ {
		rows := 2 + r.Intn(2) // 2..3
		cols := 2 + r.Intn(3) // 2..4
		draw := uniform
		if trial%2 == 1 {
			draw = ternary
		}
		scores := scoreMatrix(r, rows, cols, 0.2, draw)
		for _, minPerRow := range []int{0, 1, 2, cols} {
			if minPerRow > cols {
				continue
			}
			for total := rows * minPerRow; total <= rows*cols; total++ {
				sel, err := PickSmallest(scores, total, minPerRow)
				if err != nil {
					t.Fatal(err)
				}
				if want := sortReference(scores, total, minPerRow); !slices.EqualFunc(sel, want, slices.Equal[[]int]) {
					t.Fatalf("trial %d: selection %v, sort reference %v (scores %v, total %d, min %d)",
						trial, sel, want, scores, total, minPerRow)
				}
				if hasNaN(scores) {
					nanChecked++
					continue
				}
				got := sumSelected(scores, sel)
				want := bruteForce(scores, total, minPerRow)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("trial %d: greedy sum %v, optimal %v (scores %v, total %d, min %d)",
						trial, got, want, scores, total, minPerRow)
				}
				bruteForced++
			}
		}
	}
	if bruteForced == 0 || nanChecked == 0 {
		t.Fatalf("%d selections brute-forced and %d with NaN scores, want both", bruteForced, nanChecked)
	}
}

// TestPickSmallestMatchesSortOnLargeMatrices checks the selection
// against the sort reference on matrices large enough for its
// partitioning, up to the 5×100 Z matrix of a highdim trial, with
// heavy ties and NaN rows, one Picker reused throughout. It also runs
// the quickselect with no partition budget left, which sorts outright.
func TestPickSmallestMatchesSortOnLargeMatrices(t *testing.T) {
	r := randx.New(12)
	draws := []func() float64{
		func() float64 { return r.Uniform(-3, 3) },
		func() float64 { return float64(r.Intn(3) - 1) },
		func() float64 { return 0 },
	}
	var p Picker
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+r.Intn(6), 3+r.Intn(98)
		scores := scoreMatrix(r, rows, cols, 0.15, draws[trial%len(draws)])
		minPerRow := []int{0, 1, 2, cols}[r.Intn(4)]
		total := rows*minPerRow + r.Intn(rows*(cols-minPerRow)+1)
		sel, err := p.PickSmallest(scores, total, minPerRow)
		if err != nil {
			t.Fatal(err)
		}
		if want := sortReference(scores, total, minPerRow); !slices.EqualFunc(sel, want, slices.Equal[[]int]) {
			t.Fatalf("trial %d (%d×%d, total %d, min %d): selection %v, sort reference %v",
				trial, rows, cols, total, minPerRow, sel, want)
		}
	}
	for _, budget := range []int{0, 1} {
		cells := make([]candidate, 200)
		for i := range cells {
			cells[i] = candidate{row: i % 3, col: i, score: float64(r.Intn(3) - 1)}
		}
		want := slices.Clone(cells)
		slices.SortFunc(want, compare)
		quickselect(cells, 37, budget)
		got := slices.Clone(cells[:37])
		slices.SortFunc(got, compare)
		if !slices.Equal(got, want[:37]) {
			t.Fatalf("budget %d: selected %v, want %v", budget, got, want[:37])
		}
	}
}

// TestLessOrdersNaNLast pins the cell order: numbers ascending, NaN
// after every number including +Inf, and ties — NaN with NaN included —
// broken by row, then column.
func TestLessOrdersNaNLast(t *testing.T) {
	nan := math.NaN()
	ordered := []candidate{
		{0, 1, math.Inf(-1)},
		{1, 0, -1},
		{0, 0, 0},
		{0, 2, 0},
		{1, 1, 0},
		{0, 0, math.Inf(1)},
		{0, 3, nan},
		{1, 0, nan},
		{1, 2, nan},
	}
	for a := range ordered {
		for b := range ordered {
			if got := less(ordered[a], ordered[b]); got != (a < b) {
				t.Errorf("less(%v, %v) = %v, want %v", ordered[a], ordered[b], got, a < b)
			}
		}
	}
}

func TestPickSmallestPropertiesQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		r := randx.New(seed)
		rows := 1 + r.Intn(5)
		cols := 2 + r.Intn(6)
		scores := make([][]float64, rows)
		for i := range scores {
			scores[i] = make([]float64, cols)
			for j := range scores[i] {
				scores[i][j] = r.Uniform(-10, 10)
			}
		}
		minPerRow := r.Intn(cols + 1)
		lo, hi := rows*minPerRow, rows*cols
		total := lo + r.Intn(hi-lo+1)
		sel, err := PickSmallest(scores, total, minPerRow)
		if err != nil {
			return false
		}
		if countSelected(sel) != total {
			return false
		}
		for _, row := range sel {
			if len(row) < minPerRow {
				return false
			}
			for idx := 1; idx < len(row); idx++ {
				if row[idx] <= row[idx-1] {
					return false // must be ascending and distinct
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPickSmallestDeterministicOnTies(t *testing.T) {
	scores := [][]float64{{1, 1, 1}, {1, 1, 1}}
	a, err := PickSmallest(scores, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PickSmallest(scores, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("tie-breaking not deterministic: %v vs %v", a, b)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("tie-breaking not deterministic: %v vs %v", a, b)
			}
		}
	}
}

// BenchmarkPickSmallest measures one dimension allocation of the
// PROCLUS hill climb on the benchmark ledger's highdim shape: a 5×100
// Z matrix, a budget of k·l = 25 cells and at least two per row, with
// the Picker reused as the engine reuses it. Run with -benchmem: the
// allocation column must stay at zero.
//
//	go test -run xxx -bench BenchmarkPickSmallest -benchmem ./internal/alloc/
func BenchmarkPickSmallest(b *testing.B) {
	r := randx.New(3)
	scores := make([][]float64, 5)
	for i := range scores {
		scores[i] = make([]float64, 100)
		for j := range scores[i] {
			scores[i][j] = r.Uniform(-3, 3)
		}
	}
	var p Picker
	if _, err := p.PickSmallest(scores, 25, 2); err != nil { // size the buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PickSmallest(scores, 25, 2); err != nil {
			b.Fatal(err)
		}
	}
}
