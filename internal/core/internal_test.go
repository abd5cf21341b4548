package core

// White-box tests for the individual PROCLUS phases.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/randx"
	"proclus/internal/synth"
)

func newRunner(ds *dataset.Dataset, cfg Config) *runner {
	cfg = cfg.withDefaults()
	return &runner{ds: ds, cfg: cfg, rng: randx.New(cfg.Seed), innerWorkers: cfg.Workers}
}

func gridDataset() *dataset.Dataset {
	// 3 tight groups on a line in 2-d space.
	ds := dataset.New(2)
	for _, c := range []float64{0, 50, 100} {
		for i := 0; i < 20; i++ {
			ds.Append([]float64{c + float64(i%5)*0.1, c + float64(i/5)*0.1})
		}
	}
	return ds
}

func TestInitializeReturnsDistinctCandidates(t *testing.T) {
	ds := gridDataset()
	r := newRunner(ds, Config{K: 3, L: 2, Seed: 1})
	cands, err := r.initialize()
	if err != nil {
		t.Fatal(err)
	}
	if want := r.cfg.MedoidFactor * 3; len(cands) != want {
		t.Fatalf("got %d candidates, want B*k = %d", len(cands), want)
	}
	seen := map[int]bool{}
	for _, c := range cands {
		if c < 0 || c >= ds.Len() || seen[c] {
			t.Fatalf("bad candidate list %v", cands)
		}
		seen[c] = true
	}
}

func TestInitializeClampsToDatasetSize(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}}, nil)
	r := newRunner(ds, Config{K: 2, L: 2, Seed: 1, SampleFactor: 100, MedoidFactor: 50})
	cands, err := r.initialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 4 {
		t.Fatalf("got %d candidates from a 4-point dataset", len(cands))
	}
}

func TestComputeLocalities(t *testing.T) {
	// Medoids at indices 0 (near 0,0) and 40 (near 100,100) of the grid
	// dataset: each locality must contain its own group and not the
	// opposite one.
	ds := gridDataset()
	r := newRunner(ds, Config{K: 2, L: 2})
	locs := r.computeLocalities([]int{0, 40})
	if len(locs) != 2 {
		t.Fatalf("got %d localities", len(locs))
	}
	has := func(list []int, v int) bool {
		for _, x := range list {
			if x == v {
				return true
			}
		}
		return false
	}
	if !has(locs[0], 0) || !has(locs[1], 40) {
		t.Fatal("locality missing its own medoid")
	}
	if has(locs[0], 40) || has(locs[1], 0) {
		t.Fatal("locality contains the opposite medoid")
	}
	// The middle group (indices 20..39) sits exactly at distance ~50 of
	// both; with δ = distance between medoids (~100 segmental 2-dim =>
	// ~100)... both localities cover everything within δ_i, which is the
	// distance to the *nearest other medoid*, i.e. the far group is
	// excluded but the middle group is included.
	for i := 20; i < 40; i++ {
		if !has(locs[0], i) || !has(locs[1], i) {
			t.Fatalf("middle point %d missing from a locality", i)
		}
	}
}

func TestZRowIdentifiesTightDimensions(t *testing.T) {
	// Group tightly packed around the medoid on dim 0, spread on dim 1:
	// Z[0] must be negative, Z[1] positive.
	ds := dataset.New(2)
	ds.Append([]float64{50, 50}) // medoid
	for i := 0; i < 30; i++ {
		ds.Append([]float64{50.1, float64(i * 3)})
	}
	r := newRunner(ds, Config{K: 1, L: 2})
	group := make([]int, ds.Len())
	for i := range group {
		group[i] = i
	}
	z := r.zRow(0, group)
	if !(z[0] < 0 && z[1] > 0) {
		t.Fatalf("z = %v, want negative then positive", z)
	}
	// Standardization: mean ~0.
	if m := (z[0] + z[1]) / 2; math.Abs(m) > 1e-9 {
		t.Fatalf("z mean %v, want 0", m)
	}
}

func TestZRowDegenerateGroups(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{1, 2, 3}, {1, 2, 3}}, nil)
	r := newRunner(ds, Config{K: 1, L: 2})
	// Empty group.
	z := r.zRow(0, nil)
	for _, v := range z {
		if v != 0 {
			t.Fatalf("empty group z = %v", z)
		}
	}
	// Identical points: X row all zero → σ = 0 → all-zero Z.
	z = r.zRow(0, []int{0, 1})
	for _, v := range z {
		if v != 0 {
			t.Fatalf("identical-group z = %v", z)
		}
	}
}

// TestZRowMatchesOnePointFold checks zRowInto, whose batch kernel
// dist.AddAbsDiffs folds four group points per pass, bit for bit
// against a fold of one point at a time, for every group length up to
// 11 (every remainder of the four-point passes), in arbitrary
// order with repeats, on data whose magnitudes differ enough that any
// reassociation of the sums would show.
func TestZRowMatchesOnePointFold(t *testing.T) {
	rng := randx.New(17)
	const n, d = 40, 9
	ds := dataset.New(d)
	pt := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range pt {
			pt[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-4))
		}
		ds.Append(pt)
	}
	r := newRunner(ds, Config{K: 1, L: 2})
	x, z := make([]float64, d), make([]float64, d)
	for size := 0; size <= 11; size++ {
		group := make([]int, size)
		for i := range group {
			group[i] = rng.Intn(n)
		}
		m := rng.Intn(n)
		// The one-point-at-a-time fold: the X row, then its
		// standardization exactly as zRowInto performs it.
		want := make([]float64, d)
		xs := make([]float64, d)
		for _, p := range group {
			for j := range xs {
				xs[j] += math.Abs(ds.Point(p)[j] - ds.Point(m)[j])
			}
		}
		if size > 0 {
			inv := 1 / float64(size)
			var mean float64
			for j := range xs {
				xs[j] *= inv
				mean += xs[j]
			}
			mean /= d
			var variance float64
			for j := range xs {
				variance += (xs[j] - mean) * (xs[j] - mean)
			}
			if sigma := math.Sqrt(variance / (d - 1)); sigma != 0 {
				for j := range xs {
					want[j] = (xs[j] - mean) / sigma
				}
			}
		}
		got := r.zRowInto(m, group, x, z)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) || math.Float64bits(x[j]) != math.Float64bits(xs[j]) {
				t.Fatalf("group of %d, dimension %d: x %v z %v, want x %v z %v", size, j, x[j], got[j], xs[j], want[j])
			}
		}
	}
}

func TestFindDimensionsBudgetAndMinimum(t *testing.T) {
	ds := gridDataset()
	r := newRunner(ds, Config{K: 3, L: 2, Seed: 1})
	groups := [][]int{{0, 1, 2, 3}, {20, 21, 22, 23}, {40, 41, 42, 43}}
	dims := r.findDimensions([]int{0, 20, 40}, groups)
	total := 0
	for i, dset := range dims {
		if len(dset) < 2 {
			t.Fatalf("medoid %d got %d dims", i, len(dset))
		}
		if !sort.IntsAreSorted(dset) {
			t.Fatalf("medoid %d dims unsorted: %v", i, dset)
		}
		total += len(dset)
	}
	if total != 6 { // K*L = 3*2
		t.Fatalf("total dims %d, want 6", total)
	}
}

func TestAssignPointsNearest(t *testing.T) {
	ds := gridDataset()
	r := newRunner(ds, Config{K: 3, L: 2})
	dims := [][]int{{0, 1}, {0, 1}, {0, 1}}
	assign, sizes := r.assignPoints([]int{0, 20, 40}, dims)
	for i := 0; i < 20; i++ {
		if assign[i] != 0 || assign[20+i] != 1 || assign[40+i] != 2 {
			t.Fatalf("point group misassigned at offset %d: %d %d %d",
				i, assign[i], assign[20+i], assign[40+i])
		}
	}
	for i, s := range sizes {
		if s != 20 {
			t.Fatalf("cluster %d size %d, want 20", i, s)
		}
	}
}

func TestAssignPointsTieBreaksLow(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0}, {10}, {5}}, nil)
	// Point 2 is equidistant from medoids 0 and 1 → must go to index 0.
	// Single-dimension space needs a 2-dim config to pass validation, so
	// call assignPoints directly.
	r := newRunner(ds, Config{K: 2, L: 2})
	assign, _ := r.assignPoints([]int{0, 1}, [][]int{{0}, {0}})
	if assign[2] != 0 {
		t.Fatalf("tie broke to %d, want 0", assign[2])
	}
}

func TestEvaluateClustersPrefersTightClustering(t *testing.T) {
	ds := gridDataset()
	r := newRunner(ds, Config{K: 3, L: 2})
	dims := [][]int{{0, 1}, {0, 1}, {0, 1}}
	goodAssign, goodSizes := r.assignPoints([]int{0, 20, 40}, dims)
	good := r.evaluateClusters(goodAssign, goodSizes, dims)
	// Deliberately bad assignment: everything in cluster 0.
	badAssign := make([]int, ds.Len())
	badSizes := []int{ds.Len(), 0, 0}
	bad := r.evaluateClusters(badAssign, badSizes, dims)
	if good >= bad {
		t.Fatalf("objective does not prefer tight clustering: good=%v bad=%v", good, bad)
	}
}

// sweepObjective is the objective pass as one sweep in point order:
// every point adds its coordinates to its cluster's centroid sums, the
// sums are scaled, then every point adds its deviation term to its
// cluster's sum. It returns the objective, the centroids (only D_i's
// coordinates set) and the per-cluster deviation sums.
func sweepObjective(ds *dataset.Dataset, assign, sizes []int, dims [][]int) (float64, [][]float64, []float64) {
	k := len(sizes)
	centroids := make([][]float64, k)
	for i := range centroids {
		centroids[i] = make([]float64, ds.Dims())
	}
	for p, a := range assign {
		pt := ds.Point(p)
		for _, j := range dims[a] {
			centroids[a][j] += pt[j]
		}
	}
	for i, c := range centroids {
		if sizes[i] == 0 {
			continue
		}
		inv := 1 / float64(sizes[i])
		for _, j := range dims[i] {
			c[j] *= inv
		}
	}
	devs := make([]float64, k)
	for p, i := range assign {
		pt := ds.Point(p)
		var s float64
		for _, j := range dims[i] {
			s += math.Abs(pt[j] - centroids[i][j])
		}
		devs[i] += s / float64(len(dims[i]))
	}
	var total float64
	for _, d := range devs {
		total += d
	}
	return total / float64(len(assign)), centroids, devs
}

// TestEvaluateClustersMatchesSweep checks the cluster-by-cluster
// objective pass against the point-order sweep, bit for bit: the
// objective, every cluster's deviation sum and every centroid
// coordinate it sets. The inputs are integer lattices, whose centroids
// and deviations tie and round, and uniform reals. Each partition has
// an empty cluster, a singleton and clusters of every size modulo 4,
// and the dimension sets run through every size from 2 to d, so every
// 4/2/1 remainder of the centroid pass and every member remainder of
// the deviation pass occurs. One scratch serves every case, so stale
// buffers would show.
func TestEvaluateClustersMatchesSweep(t *testing.T) {
	const n, d, k = 300, 11, 7
	rng := randx.New(17)
	draws := []struct {
		name string
		draw func() float64
	}{
		{"lattice", func() float64 { return float64(rng.Intn(4)) }},
		{"uniform", func() float64 { return rng.Uniform(-50, 50) }},
	}
	s := newObjectiveScratch(n, k, d)
	for _, dr := range draws {
		ds := dataset.New(d)
		pt := make([]float64, d)
		for p := 0; p < n; p++ {
			for j := range pt {
				pt[j] = dr.draw()
			}
			ds.Append(pt)
		}
		r := newRunner(ds, Config{K: k, L: 2})
		for trial := 0; trial < 2*(d-1); trial++ {
			// Sizes 0, 1, 2, 3, 4 and 5, the rest to the last cluster,
			// dealt to the points in random order.
			sizes := []int{0, 1, 2, 3, 4, 5, n - 15}
			rng.Shuffle(k, func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
			assign := make([]int, 0, n)
			for i, size := range sizes {
				for range size {
					assign = append(assign, i)
				}
			}
			rng.Shuffle(n, func(a, b int) { assign[a], assign[b] = assign[b], assign[a] })
			dims := make([][]int, k)
			for i := range dims {
				dims[i] = rng.Perm(d)[:2+(trial+i)%(d-1)]
				sort.Ints(dims[i])
			}
			ctx := fmt.Sprintf("%s trial %d", dr.name, trial)
			got := r.evaluateClustersInto(assign, sizes, dims, &s)
			want, centroids, devs := sweepObjective(ds, assign, sizes, dims)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: objective %v, sweep %v", ctx, got, want)
			}
			for i := range sizes {
				if math.Float64bits(s.devs[i]) != math.Float64bits(devs[i]) {
					t.Fatalf("%s: cluster %d (%d points, %d dims): deviation %v, sweep %v",
						ctx, i, sizes[i], len(dims[i]), s.devs[i], devs[i])
				}
				for _, j := range dims[i] {
					if math.Float64bits(s.centroids[i][j]) != math.Float64bits(centroids[i][j]) {
						t.Fatalf("%s: cluster %d (%d points) centroid[%d] = %v, sweep %v",
							ctx, i, sizes[i], j, s.centroids[i][j], centroids[i][j])
					}
				}
			}
		}
	}
}

func TestFindBadMedoidsSmallestAlwaysBad(t *testing.T) {
	ds := gridDataset()
	r := newRunner(ds, Config{K: 3, L: 2})
	tr := &trialState{sizes: []int{30, 25, 5}}
	bad := r.findBadMedoids(tr)
	found := false
	for _, b := range bad {
		if b == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("smallest cluster's medoid not flagged: %v", bad)
	}
}

func TestFindBadMedoidsDeviationThreshold(t *testing.T) {
	ds := gridDataset() // N=60, k=3 → N/k=20, threshold 2 with default 0.1
	r := newRunner(ds, Config{K: 3, L: 2})
	tr := &trialState{sizes: []int{57, 1, 2}}
	bad := r.findBadMedoids(tr)
	// Cluster 1 is smallest (always bad); cluster 2 has 2 < 2? No: 2 is
	// not < 2, so only cluster 1.
	if len(bad) != 1 || bad[0] != 1 {
		t.Fatalf("bad = %v, want [1]", bad)
	}
	tr2 := &trialState{sizes: []int{58, 1, 1}}
	bad2 := r.findBadMedoids(tr2)
	if len(bad2) != 2 {
		t.Fatalf("bad = %v, want two entries", bad2)
	}
}

func TestReplaceBadSubstitutes(t *testing.T) {
	ds := gridDataset()
	r := newRunner(ds, Config{K: 3, L: 2, Seed: 5})
	best := &trialState{
		medoids:    []int{0, 20, 40},
		badMedoids: []int{2},
	}
	candidates := []int{0, 20, 40, 1, 21, 41}
	next, ok := r.replaceBad(best, candidates, r.rng)
	if !ok {
		t.Fatal("replacement reported no free candidates")
	}
	if next[0] != 0 || next[1] != 20 {
		t.Fatalf("good medoids disturbed: %v", next)
	}
	if next[2] == 40 {
		t.Fatalf("bad medoid not replaced: %v", next)
	}
	// Replacement must come from the candidate pool.
	valid := map[int]bool{1: true, 21: true, 41: true}
	if !valid[next[2]] {
		t.Fatalf("replacement %d not from free candidates", next[2])
	}
}

func TestReplaceBadExhaustedPool(t *testing.T) {
	ds := gridDataset()
	r := newRunner(ds, Config{K: 3, L: 2})
	best := &trialState{medoids: []int{0, 20, 40}, badMedoids: []int{0}}
	if _, ok := r.replaceBad(best, []int{0, 20, 40}, r.rng); ok {
		t.Fatal("replacement succeeded with no free candidates")
	}
}

// recordingEval wraps a trial engine and records every medoid list that
// reaches evaluate, with a copy of the trial it scored.
type recordingEval struct {
	evaluator
	trials []*trialState
}

func (e *recordingEval) evaluate(medoids []int) *trialState {
	t := e.evaluator.evaluate(medoids)
	e.trials = append(e.trials, t.clone())
	return t
}

// TestClimbScoresEachListOnce drives climb through a recording engine
// and replays its proposals with a twin of its generator: the first
// list from the generator's permutation of the candidates, each next
// one by replaceBad from the best trial scored so far. No ordered list
// may reach the engine twice in one climb; every first proposal of a
// list must be the engine's next call, with its objective in the
// trace; every repeat must enter the trace with the objective of its
// list's first scoring and count in reused; and the engine's calls
// plus reused must make up the iterations.
func TestClimbScoresEachListOnce(t *testing.T) {
	ds, _, err := synth.Generate(synth.Config{
		N: 600, Dims: 12, K: 4, FixedDims: 5, MinSizeFraction: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	repeats := 0
	for seed := uint64(1); seed <= 4; seed++ {
		r := newRunner(ds, Config{K: 4, L: 4, Seed: seed, Workers: 1})
		candidates, err := r.initialize()
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingEval{evaluator: newEngine(r, r.newCandidateTable(candidates, 1))}
		o := r.climb(candidates, 1, randx.New(100+seed), rec)
		if o.err != nil {
			t.Fatal(o.err)
		}
		if len(rec.trials)+o.reused != o.iterations || len(o.trace) != o.iterations {
			t.Fatalf("seed %d: %d scored trials and %d repeats, %d trace entries, for %d iterations",
				seed, len(rec.trials), o.reused, len(o.trace), o.iterations)
		}
		seen := map[string]bool{}
		for _, tr := range rec.trials {
			key := fmt.Sprint(tr.medoids)
			if seen[key] {
				t.Fatalf("seed %d: medoid list %v reached the engine twice", seed, tr.medoids)
			}
			seen[key] = true
		}

		rng := randx.New(100 + seed)
		perm := rng.Perm(len(candidates))
		list := make([]int, r.cfg.K)
		for i := range list {
			list[i] = candidates[perm[i]]
		}
		first := map[string]float64{}
		var best *trialState
		calls, reused := 0, 0
		for it := 0; it < o.iterations; it++ {
			key := fmt.Sprint(list)
			want, repeat := first[key]
			if repeat {
				reused++
			} else {
				if calls == len(rec.trials) || !slices.Equal(rec.trials[calls].medoids, list) {
					t.Fatalf("seed %d, trial %d: proposed %v, which the engine did not score next", seed, it+1, list)
				}
				tr := rec.trials[calls]
				calls++
				want = tr.objective
				first[key] = want
				if best == nil || want < best.objective {
					best = tr
					best.badMedoids = r.findBadMedoids(best)
				}
			}
			if math.Float64bits(o.trace[it]) != math.Float64bits(want) {
				t.Fatalf("seed %d, trial %d (repeat %v): trace entry %v, want %v", seed, it+1, repeat, o.trace[it], want)
			}
			if it+1 < o.iterations {
				next, ok := r.replaceBad(best, candidates, rng)
				if !ok {
					t.Fatalf("seed %d: the replay ran out of candidates at trial %d", seed, it+1)
				}
				list = next
			}
		}
		if calls != len(rec.trials) || reused != o.reused {
			t.Fatalf("seed %d: replay made %d calls and %d repeats, the climb %d and %d",
				seed, calls, reused, len(rec.trials), o.reused)
		}
		repeats += reused
	}
	if repeats == 0 {
		t.Fatal("no climb repeated a medoid list, so the memo went untested")
	}
}
