package greedy

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"proclus/internal/dist"
	"proclus/internal/obs"
	"proclus/internal/randx"
)

func pointsDistance(pts [][]float64) DistanceTo {
	return func(i, j int) float64 { return dist.Manhattan(pts[i], pts[j]) }
}

func TestFarthestFirstErrors(t *testing.T) {
	r := randx.New(1)
	d := func(i, j int) float64 { return 0 }
	if _, err := FarthestFirst(r, 5, 0, d); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := FarthestFirst(r, 3, 4, d); err == nil {
		t.Error("k>n accepted")
	}
}

func TestFarthestFirstDistinct(t *testing.T) {
	r := randx.New(2)
	pts := make([][]float64, 50)
	rng := randx.New(3)
	for i := range pts {
		pts[i] = []float64{rng.Uniform(0, 100), rng.Uniform(0, 100)}
	}
	picks, err := FarthestFirst(r, len(pts), 10, pointsDistance(pts))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range picks {
		if seen[p] {
			t.Fatalf("duplicate pick %d in %v", p, picks)
		}
		seen[p] = true
	}
}

func TestFarthestFirstSeparatesClusters(t *testing.T) {
	// Four tight groups far apart: picking 4 should take one from each
	// ("piercing set") regardless of the random first pick.
	centers := [][]float64{{0, 0}, {100, 0}, {0, 100}, {100, 100}}
	var pts [][]float64
	groupOf := map[int]int{}
	rng := randx.New(4)
	for g, c := range centers {
		for i := 0; i < 25; i++ {
			pts = append(pts, []float64{c[0] + rng.Uniform(-1, 1), c[1] + rng.Uniform(-1, 1)})
			groupOf[len(pts)-1] = g
		}
	}
	for trial := 0; trial < 20; trial++ {
		picks, err := FarthestFirst(randx.New(uint64(trial)), len(pts), 4, pointsDistance(pts))
		if err != nil {
			t.Fatal(err)
		}
		got := map[int]bool{}
		for _, p := range picks {
			got[groupOf[p]] = true
		}
		if len(got) != 4 {
			t.Fatalf("trial %d: picks %v cover only groups %v", trial, picks, got)
		}
	}
}

func TestFarthestFirstGreedyInvariant(t *testing.T) {
	// Each successive pick must be at least as far from the prior picks
	// as every unpicked point is from its nearest prior pick... i.e., the
	// pick maximizes the min distance. Verify directly.
	rng := randx.New(5)
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{rng.Uniform(0, 10), rng.Uniform(0, 10), rng.Uniform(0, 10)}
	}
	d := pointsDistance(pts)
	picks, err := FarthestFirst(randx.New(6), len(pts), 8, d)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step < len(picks); step++ {
		prior := picks[:step]
		minTo := func(i int) float64 {
			m := math.Inf(1)
			for _, p := range prior {
				if v := d(i, p); v < m {
					m = v
				}
			}
			return m
		}
		pickDist := minTo(picks[step])
		for i := range pts {
			inPrior := false
			for _, p := range prior {
				if p == i {
					inPrior = true
				}
			}
			if inPrior {
				continue
			}
			if minTo(i) > pickDist+1e-9 {
				t.Fatalf("step %d: point %d (dist %v) farther than pick %d (dist %v)",
					step, i, minTo(i), picks[step], pickDist)
			}
		}
	}
}

func TestFarthestFirstKEqualsN(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}}
	picks, err := FarthestFirst(randx.New(7), 3, 3, pointsDistance(pts))
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != 3 {
		t.Fatalf("picks = %v", picks)
	}
}

func TestFarthestFirstDuplicatePoints(t *testing.T) {
	// All points identical: distances are all zero but the traversal
	// must still return k distinct indices.
	pts := make([][]float64, 10)
	for i := range pts {
		pts[i] = []float64{5, 5}
	}
	picks, err := FarthestFirst(randx.New(8), 10, 4, pointsDistance(pts))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range picks {
		if seen[p] {
			t.Fatalf("duplicate index on degenerate input: %v", picks)
		}
		seen[p] = true
	}
}

// TestFarthestFirstCountedTotals checks the bounded traversal's batched
// accounting against per-call counting: for every worker count the
// picks and the recorded evaluation total must match a serial traversal
// whose distance function counts each invocation itself.
func TestFarthestFirstCountedTotals(t *testing.T) {
	rng := randx.New(21)
	pts := make([][]float64, 80)
	for i := range pts {
		pts[i] = []float64{rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(0, 100)}
	}
	d := pointsDistance(pts)
	bounded := func(i, j int, _ float64) (float64, int, bool) { return d(i, j), 3, false }
	const k = 9

	var perCall atomic.Int64
	counting := func(i, j int) float64 {
		perCall.Add(1)
		return d(i, j)
	}
	refPicks, err := FarthestFirst(randx.New(5), len(pts), k, counting)
	if err != nil {
		t.Fatal(err)
	}
	want := perCall.Load()
	// Figure 3 folds every not-yet-chosen item after each pick: n for
	// the first pass, then n-m once m picks are chosen.
	explicit := int64(len(pts))
	for m := 2; m <= k; m++ {
		explicit += int64(len(pts) - m)
	}
	if want != explicit {
		t.Fatalf("per-call count %d does not match the closed form %d", want, explicit)
	}

	for _, workers := range []int{1, 2, 3, 8} {
		var batched obs.Counters
		picks, err := FarthestFirstBounded(randx.New(5), len(pts), k, workers, bounded, nil, &batched)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(picks, refPicks) {
			t.Fatalf("workers=%d: picks %v differ from serial %v", workers, picks, refPicks)
		}
		if got := batched.DistanceEvals.Load(); got != want {
			t.Fatalf("workers=%d: batched count %d, per-call count %d", workers, got, want)
		}
	}

	// nil counters must be accepted.
	if _, err := FarthestFirstBounded(randx.New(5), len(pts), k, 2, bounded, nil, nil); err != nil {
		t.Fatal(err)
	}
}
