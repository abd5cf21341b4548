package greedy

import (
	"testing"

	"proclus/internal/dist"
	"proclus/internal/obs"
	"proclus/internal/randx"
)

// boundedFixture builds a point set with its exact and early-abandoning
// distance closures over the full-dimensional segmental metric.
func boundedFixture(t *testing.T, n, d int) (exact DistanceTo, bounded BoundedDistanceTo) {
	t.Helper()
	rng := randx.New(505)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Uniform(-50, 50)
		}
		pts[i] = p
	}
	exact = func(i, j int) float64 { return dist.SegmentalAll(pts[i], pts[j]) }
	bounded = func(i, j int, cutoff float64) (float64, int, bool) {
		return dist.SegmentalAllBounded(pts[i], pts[j], cutoff)
	}
	return exact, bounded
}

func TestFarthestFirstBoundedMatchesUnpruned(t *testing.T) {
	const n, d, k = 400, 32, 12
	exact, bounded := boundedFixture(t, n, d)
	want, err := FarthestFirstParallel(randx.New(9), n, k, 1, exact)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		var c obs.Counters
		got, err := FarthestFirstBounded(randx.New(9), n, k, workers, bounded, nil, &c)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d picks, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pick %d = %d, want %d (abandonment changed the traversal)",
					workers, i, got[i], want[i])
			}
		}
		s := c.Snapshot()
		if s.DistanceEvalsFull+s.DistanceEvalsAbandoned != s.DistanceEvals {
			t.Fatalf("workers=%d: full %d + abandoned %d != evals %d",
				workers, s.DistanceEvalsFull, s.DistanceEvalsAbandoned, s.DistanceEvals)
		}
		if s.DistanceEvalsAbandoned == 0 {
			t.Fatalf("workers=%d: no evaluation abandoned on random data", workers)
		}
		// Every started evaluation visits at least one coordinate; a full
		// one visits all d. Abandonment must make the total strictly less
		// than the full product.
		if s.CoordsVisited >= s.DistanceEvals*int64(d) {
			t.Fatalf("workers=%d: coords %d not below full product %d",
				workers, s.CoordsVisited, s.DistanceEvals*int64(d))
		}
		if s.CoordsVisited < s.DistanceEvalsFull*int64(d) {
			t.Fatalf("workers=%d: coords %d below the full evaluations' floor %d",
				workers, s.CoordsVisited, s.DistanceEvalsFull*int64(d))
		}
	}
}

func TestFarthestFirstBoundedCountersWorkerInvariant(t *testing.T) {
	const n, d, k = 300, 48, 10
	_, bounded := boundedFixture(t, n, d)
	var base obs.Snapshot
	for i, workers := range []int{1, 2, 7} {
		var c obs.Counters
		if _, err := FarthestFirstBounded(randx.New(3), n, k, workers, bounded, nil, &c); err != nil {
			t.Fatal(err)
		}
		s := c.Snapshot()
		if i == 0 {
			base = s
			continue
		}
		if s != base {
			t.Fatalf("workers=%d: counters %+v differ from workers=1 %+v", workers, s, base)
		}
	}
}

func TestFarthestFirstBoundedRequiresBound(t *testing.T) {
	if _, err := FarthestFirstBounded(randx.New(1), 10, 2, 1, nil, nil, nil); err == nil {
		t.Fatal("FarthestFirstBounded accepted a nil bounded distance function")
	}
}

func TestFarthestFirstBoundedWithLowerBoundFilter(t *testing.T) {
	// Composing a lower-bound pre-filter with abandonment must still match
	// the plain traversal: the filter skips folds the plain fold would
	// reject, and abandonment only drops candidates proved above the
	// running minimum. The bound here is the segmental sum over the first
	// half of the coordinates: a prefix of the same non-negative terms,
	// summed in the same order and divided by the same d, never exceeds
	// the computed SegmentalAll.
	const n, d, k = 400, 32, 12
	rng := randx.New(404)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Uniform(-50, 50)
		}
		pts[i] = p
	}
	exact := func(i, j int) float64 { return dist.SegmentalAll(pts[i], pts[j]) }
	lb := func(i, j int) float64 { return dist.Manhattan(pts[i][:d/2], pts[j][:d/2]) / d }
	bounded := func(i, j int, cutoff float64) (float64, int, bool) {
		v := exact(i, j)
		return v, d, v > cutoff
	}
	want, err := FarthestFirstParallel(randx.New(6), n, k, 1, exact)
	if err != nil {
		t.Fatal(err)
	}
	var plain, filtered obs.Counters
	if _, err := FarthestFirstBounded(randx.New(6), n, k, 4, bounded, nil, &plain); err != nil {
		t.Fatal(err)
	}
	got, err := FarthestFirstBounded(randx.New(6), n, k, 4, bounded, lb, &filtered)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick %d = %d, want %d", i, got[i], want[i])
		}
	}
	if p, f := plain.DistanceEvals.Load(), filtered.DistanceEvals.Load(); f >= p {
		t.Fatalf("filtered traversal started %d evaluations, unfiltered %d — the bound skipped nothing", f, p)
	}
}
