// Package alloc solves the dimension-budget problem of the PROCLUS
// FindDimensions step, which the paper identifies as a separable convex
// resource allocation problem (Ibaraki & Katoh, 1988) solvable exactly
// by a greedy algorithm: given a score for every (cluster, dimension)
// pair, choose a fixed total number of pairs minimizing the score sum,
// subject to a minimum number of chosen pairs per cluster.
package alloc

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// candidate is one selectable (row, column) cell.
type candidate struct {
	row, col int
	score    float64
}

// PickSmallest selects exactly total cells from the scores matrix with
// the minimum possible score sum, subject to choosing at least minPerRow
// cells in every row. It returns, for each row, the chosen column
// indices in ascending column order.
//
// This is the paper's greedy: preallocate the minPerRow smallest cells
// of each row, then take the globally smallest remaining cells until
// the budget is spent. Cells are ordered by (score, row, column), with
// a NaN score after every number, a strict total order, so identical
// inputs always produce identical selections.
func PickSmallest(scores [][]float64, total, minPerRow int) ([][]int, error) {
	return new(Picker).PickSmallest(scores, total, minPerRow)
}

// Picker runs PickSmallest with reusable internal buffers. Repeated
// calls of the same shape allocate nothing; the PROCLUS hill climb
// holds one per restart so its per-trial dimension allocation stays
// off the garbage collector. The returned rows alias the Picker and
// are overwritten by the next call — callers that retain a selection
// must copy it. A Picker is not safe for concurrent use; the zero
// value is ready.
type Picker struct {
	chosen []bool // rows×cols, row-major
	cells  []candidate
	out    [][]int
	flat   []int // backing store for out's rows
}

// PickSmallest is the allocation-reusing form of the package-level
// PickSmallest; see Picker for the aliasing contract.
//
// Neither phase sorts. Each takes its cells by selection, which
// partitions them around the m-th smallest in the strict total order;
// since no two cells tie, the m cells it leaves in front are the m a
// full sort would put there.
func (p *Picker) PickSmallest(scores [][]float64, total, minPerRow int) ([][]int, error) {
	rows := len(scores)
	if rows == 0 {
		return nil, fmt.Errorf("alloc: empty score matrix")
	}
	cols := len(scores[0])
	for i, r := range scores {
		if len(r) != cols {
			return nil, fmt.Errorf("alloc: row %d has %d columns, want %d", i, len(r), cols)
		}
	}
	if minPerRow < 0 {
		return nil, fmt.Errorf("alloc: negative minPerRow %d", minPerRow)
	}
	if minPerRow > cols {
		return nil, fmt.Errorf("alloc: minPerRow %d exceeds %d columns", minPerRow, cols)
	}
	if total < rows*minPerRow {
		return nil, fmt.Errorf("alloc: budget %d below row minimum %d×%d", total, rows, minPerRow)
	}
	if total > rows*cols {
		return nil, fmt.Errorf("alloc: budget %d exceeds matrix size %d×%d", total, rows, cols)
	}

	p.chosen = resize(p.chosen, rows*cols)
	clear(p.chosen)

	// Phase 1: per-row preallocation of the minPerRow smallest cells.
	// The cells left over are packed in front of the rows still to come,
	// so the buffer ends up holding exactly the cells of phase 2.
	p.cells = resize(p.cells, rows*cols)
	rest := 0
	for i, r := range scores {
		row := p.cells[rest : rest+cols]
		for j, v := range r {
			row[j] = candidate{row: i, col: j, score: v}
		}
		selectSmallest(row, minPerRow)
		for _, c := range row[:minPerRow] {
			p.chosen[c.row*cols+c.col] = true
		}
		rest += copy(p.cells[rest:], row[minPerRow:])
	}

	// Phase 2: global greedy over the remaining cells.
	remaining := total - rows*minPerRow
	left := p.cells[:rest]
	selectSmallest(left, remaining)
	for _, c := range left[:remaining] {
		p.chosen[c.row*cols+c.col] = true
	}

	p.out = resize(p.out, rows)
	p.flat = resize(p.flat, total)[:0]
	for i := 0; i < rows; i++ {
		start := len(p.flat)
		for j := 0; j < cols; j++ {
			if p.chosen[i*cols+j] {
				p.flat = append(p.flat, j)
			}
		}
		p.out[i] = p.flat[start:len(p.flat):len(p.flat)]
	}
	return p.out, nil
}

// resize returns s with length n, growing the backing array only when
// the capacity is insufficient.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// less is the strict total order on cells: by score, a NaN score after
// every number, then by row, then by column.
func less(a, b candidate) bool {
	aNaN, bNaN := math.IsNaN(a.score), math.IsNaN(b.score)
	switch {
	case aNaN != bNaN:
		return bNaN
	case !aNaN && a.score != b.score:
		return a.score < b.score
	case a.row != b.row:
		return a.row < b.row
	}
	return a.col < b.col
}

// selectSmallest reorders c so that c[:m] holds its m smallest cells
// under less, in no particular order. It is a quickselect with a
// median-of-three pivot; ranges of up to 12 cells are finished by
// insertion sort, and a range still open after 2·log₂(len(c))
// partitions is sorted outright, which bounds the worst case at
// O(n log n).
func selectSmallest(c []candidate, m int) {
	quickselect(c, m, 2*bits.Len(uint(len(c))))
}

// quickselect is selectSmallest with an explicit partition budget.
func quickselect(c []candidate, m, budget int) {
	if m <= 0 || m >= len(c) {
		return
	}
	lo, hi := 0, len(c)
	for ; hi-lo > 12; budget-- {
		if budget <= 0 {
			slices.SortFunc(c[lo:hi], compare)
			return
		}
		p := lo + partition(c[lo:hi])
		switch {
		case m < p:
			hi = p
		case m > p+1:
			lo = p + 1
		default:
			return
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && less(c[j], c[j-1]); j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
}

// partition moves the median of c's first, middle and last cells to
// index q, every smaller cell before it and every larger one after it,
// and returns q. c must hold at least three cells.
func partition(c []candidate) int {
	last, mid := len(c)-1, len(c)/2
	if less(c[mid], c[0]) {
		c[mid], c[0] = c[0], c[mid]
	}
	if less(c[last], c[mid]) {
		c[last], c[mid] = c[mid], c[last]
		if less(c[mid], c[0]) {
			c[mid], c[0] = c[0], c[mid]
		}
	}
	// c[0] ≤ c[mid] ≤ c[last]: park the pivot at the end.
	c[mid], c[last] = c[last], c[mid]
	pivot, q := c[last], 0
	for j := 0; j < last; j++ {
		if less(c[j], pivot) {
			c[q], c[j] = c[j], c[q]
			q++
		}
	}
	c[q], c[last] = c[last], c[q]
	return q
}

// compare is less as a three-way comparison, for slices.SortFunc.
func compare(a, b candidate) int {
	switch {
	case less(a, b):
		return -1
	case less(b, a):
		return 1
	}
	return 0
}
