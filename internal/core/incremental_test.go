package core

// Tests for the incremental hill-climb engine: the cached evaluation
// must be bit-identical to naive re-evaluation for arbitrary
// configurations, recompute only the products whose key changed, and
// allocate nothing in steady state.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/obs"
	"proclus/internal/randx"
	"proclus/internal/synth"
)

// assertIdenticalResults compares everything the two engines must
// agree on bit-for-bit: the partition, the dimension sets, the exact
// objective, the full trial trace and the per-restart outcomes. The
// counters legitimately differ (that is the point of the cache) and
// timings are nondeterministic, so Stats is compared per field.
func assertIdenticalResults(t *testing.T, inc, naive *Result, context string) {
	t.Helper()
	if math.Float64bits(inc.Objective) != math.Float64bits(naive.Objective) {
		t.Fatalf("%s: objective differs: %v (incremental) vs %v (naive)",
			context, inc.Objective, naive.Objective)
	}
	if inc.Iterations != naive.Iterations {
		t.Fatalf("%s: iterations differ: %d vs %d", context, inc.Iterations, naive.Iterations)
	}
	if !reflect.DeepEqual(inc.Assignments, naive.Assignments) {
		t.Fatalf("%s: assignments differ", context)
	}
	if !reflect.DeepEqual(inc.Clusters, naive.Clusters) {
		t.Fatalf("%s: clusters differ", context)
	}
	if len(inc.Stats.ObjectiveTrace) != len(naive.Stats.ObjectiveTrace) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", context,
			len(inc.Stats.ObjectiveTrace), len(naive.Stats.ObjectiveTrace))
	}
	for i := range inc.Stats.ObjectiveTrace {
		if math.Float64bits(inc.Stats.ObjectiveTrace[i]) != math.Float64bits(naive.Stats.ObjectiveTrace[i]) {
			t.Fatalf("%s: trace differs at trial %d: %v vs %v", context, i,
				inc.Stats.ObjectiveTrace[i], naive.Stats.ObjectiveTrace[i])
		}
	}
	for i := range inc.Stats.Restarts {
		ir, nr := inc.Stats.Restarts[i], naive.Stats.Restarts[i]
		if ir.Iterations != nr.Iterations ||
			math.Float64bits(ir.BestObjective) != math.Float64bits(nr.BestObjective) {
			t.Fatalf("%s: restart %d differs: %+v vs %+v", context, i, ir, nr)
		}
	}
	// The scan passes visit the same points either way; only the
	// distance-evaluation accounting moves.
	if inc.Stats.Counters.PointsScanned != naive.Stats.Counters.PointsScanned {
		t.Fatalf("%s: points scanned differ: %d vs %d", context,
			inc.Stats.Counters.PointsScanned, naive.Stats.Counters.PointsScanned)
	}
	if naive.Stats.Counters.DistCacheHits != 0 || naive.Stats.Counters.DistCacheRecomputes != 0 {
		t.Fatalf("%s: naive engine touched the cache counters: %+v", context, naive.Stats.Counters)
	}
}

// TestIncrementalNaiveEquivalence is the cached-vs-naive metamorphic
// guarantee over randomized datasets and configurations: for any
// input, Run and the naive reference must produce identical Results.
// The last trial runs N = 2·assignTile + 37 points at 7 workers, so
// the assignment pass's worker chunks end inside its tiles.
func TestIncrementalNaiveEquivalence(t *testing.T) {
	rng := randx.New(99)
	for trial := 0; trial < 9; trial++ {
		dims := 4 + rng.Intn(8)
		k := 2 + rng.Intn(3)
		fixed := 2 + rng.Intn(dims-2)
		n := 400 + rng.Intn(1200)
		if trial == 8 {
			n = 2*assignTile + 37
		}
		seed := rng.Uint64()
		ds, _, err := synth.Generate(synth.Config{
			N: n, Dims: dims, K: k, FixedDims: fixed, MinSizeFraction: 0.1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		l := 2 + rng.Intn(fixed-1)
		cfg := Config{
			K: k, L: l, Seed: seed + 1,
			Restarts:     1 + rng.Intn(3),
			Workers:      1 + rng.Intn(4),
			MaxNoImprove: 3 + rng.Intn(10),
		}
		if trial == 8 {
			cfg.Restarts, cfg.Workers = 1, 7
		}
		context := fmt.Sprintf("trial %d (n=%d dims=%d k=%d l=%d cfg=%+v)", trial, n, dims, k, l, cfg)

		inc, err := Run(ds, cfg)
		if err != nil {
			t.Fatalf("%s: incremental: %v", context, err)
		}
		naive, err := referenceRun(ds, cfg, ablation{})
		if err != nil {
			t.Fatalf("%s: naive: %v", context, err)
		}
		assertIdenticalResults(t, inc, naive, context)
	}
}

// incrementalFixture builds a white-box runner over a synthetic dataset
// and the base medoid set of the engine tests. Workers: 1 keeps every
// parallel pass inline so allocation measurements see only the
// evaluation itself.
func incrementalFixture(t testing.TB, n int) (*runner, []int) {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: n, Dims: 12, K: 4, FixedDims: 5, MinSizeFraction: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(ds, Config{K: 4, L: 4, Seed: 11, Workers: 1})
	return r, []int{10, n / 3, 2 * n / 5, n - 20}
}

// engineOver builds an incremental engine whose candidate table holds
// an explicit candidate list: the distinct medoids of sets, in the
// order they first appear.
func engineOver(r *runner, sets ...[]int) *incrementalEval {
	var cands []int
	seen := map[int]bool{}
	for _, set := range sets {
		for _, m := range set {
			if !seen[m] {
				seen[m] = true
				cands = append(cands, m)
			}
		}
	}
	return newEngine(r, r.newCandidateTable(cands, r.innerWorkers))
}

// TestCandidateTableCreditsOncePerRun pins the table's accounting at 1,
// 2 and 7 workers. Building it credits its N·C point×candidate and
// C·(C−1) candidate-pair distances, as evaluations and as cache
// recomputes; trials credit no full-dimensional evaluation, only the
// projected ones of their assignment pass, and k·N + k·(k−1) cache hits
// each; a whole run credits the table once however many restarts read
// it, and the cache hits of its scored trials, the iterations less the
// repeats, alone; and every total, the repeats included, is the same at
// every worker count.
func TestCandidateTableCreditsOncePerRun(t *testing.T) {
	const n, k = 600, 4
	ds, _, err := synth.Generate(synth.Config{
		N: n, Dims: 12, K: k, FixedDims: 5, MinSizeFraction: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := int64(ds.Dims())
	cands := []int{10, 200, 240, 580, 33, 410, 77, 500, 301, 150}
	sets := [][]int{
		{10, 200, 240, 580},
		{10, 33, 240, 580},
		{10, 200, 240, 580},
		{410, 77, 500, 301},
	}
	var white, whole []obs.Snapshot
	var reused [][]int
	for _, workers := range []int{1, 2, 7} {
		r := newRunner(ds, Config{K: k, L: 4, Seed: 11, Workers: workers})
		tab := r.newCandidateTable(cands, workers)
		c := int64(len(cands))
		table := n*c + c*(c-1)
		if got := r.counters.Snapshot(); got.DistCacheRecomputes != table ||
			got.DistanceEvals != table || got.CoordsVisited != table*d {
			t.Fatalf("workers=%d: table credited %+v, want %d evaluations over %d coordinates",
				workers, got, table, table*d)
		}
		e := newEngine(r, tab)
		var projEvals, projCoords int64
		for _, set := range sets {
			e.evaluate(set)
			projEvals += n * int64(len(e.projDirty))
			projCoords += n * e.projCoords
		}
		got := r.counters.Snapshot()
		if got.DistCacheRecomputes != table {
			t.Fatalf("workers=%d: trials recomputed %d table distances", workers, got.DistCacheRecomputes-table)
		}
		if got.DistanceEvals != table+projEvals || got.CoordsVisited != table*d+projCoords {
			t.Fatalf("workers=%d: trials credited %d evaluations over %d coordinates, want only the %d projected over %d",
				workers, got.DistanceEvals-table, got.CoordsVisited-table*d, projEvals, projCoords)
		}
		if want := int64(len(sets)) * (k*n + k*(k-1)); got.DistCacheHits != want {
			t.Fatalf("workers=%d: %d cache hits, want %d", workers, got.DistCacheHits, want)
		}
		white = append(white, got)

		res, err := Run(ds, Config{K: k, L: 4, Seed: 11, Workers: workers, Restarts: 3})
		if err != nil {
			t.Fatal(err)
		}
		rc := res.Stats.Counters
		runC := int64(min(res.Config.MedoidFactor*k, n))
		if want := n*runC + runC*(runC-1); rc.DistCacheRecomputes != want {
			t.Fatalf("workers=%d: run recomputed %d table distances, want one table of %d", workers, rc.DistCacheRecomputes, want)
		}
		var scored int64
		var repeats []int
		for _, rs := range res.Stats.Restarts {
			scored += int64(rs.Iterations - rs.Reused)
			repeats = append(repeats, rs.Reused)
		}
		if scored == int64(res.Iterations) {
			t.Fatalf("workers=%d: no restart repeated a medoid list, so the repeats went uncounted", workers)
		}
		if want := scored * (k*n + k*(k-1)); rc.DistCacheHits != want {
			t.Fatalf("workers=%d: run credited %d cache hits over %d scored trials, want %d", workers, rc.DistCacheHits, scored, want)
		}
		whole = append(whole, rc)
		reused = append(reused, repeats)
	}
	for i := 1; i < len(white); i++ {
		if white[i] != white[0] || whole[i] != whole[0] || !slices.Equal(reused[i], reused[0]) {
			t.Fatalf("counters depend on the worker count:\nengine %+v vs %+v\nrun %+v vs %+v\nreused %v vs %v",
				white[i], white[0], whole[i], whole[0], reused[i], reused[0])
		}
	}
}

// TestCandidateTableLocalities checks the rank test against the strict
// distance test it replaces. Every rank must be sort.Search's count of
// T_a's entries at most SegmentalAll(p, c_a), with T_a rebuilt from the
// distances. For every candidate a, with every other candidate b as the
// nearest medoid, the table's locality at δ = SegmentalAll(c_a, c_b)
// must be the naive scan {p : SegmentalAll(p, c_a) < δ} in ascending
// order, and at δ = +Inf (k = 1) every point at a finite distance. The
// inputs are tie-heavy integer lattices, whose duplicate candidates
// make δ = 0, and coordinates near ±1e300 and ±1e308, whose distances
// overflow to +Inf. Lattices of N = localityChunk − 1, localityChunk,
// localityChunk + 1 and 2·localityChunk + 37 points end the scan's
// chunks on either side of a chunk edge, and one of 260 candidates
// takes q and the ranks past one byte.
func TestCandidateTableLocalities(t *testing.T) {
	rng := randx.New(5)
	build := func(n, d int, coord func() float64) *dataset.Dataset {
		ds := dataset.New(d)
		pt := make([]float64, d)
		for i := 0; i < n; i++ {
			for j := range pt {
				pt[j] = coord()
			}
			ds.Append(pt)
		}
		return ds
	}
	lattice := func(side int) func() float64 {
		return func() float64 { return float64(rng.Intn(side)) }
	}
	huge := []float64{-1e308, -9e307, -1e300, 0, 1e300, 9e307, 1e308}
	cases := []struct {
		name  string
		ds    *dataset.Dataset
		cands int
	}{
		{"lattice d=3", build(300, 3, lattice(3)), 40},
		{"lattice d=1", build(200, 1, lattice(4)), 13},
		{"overflow d=4", build(200, 4, func() float64 { return huge[rng.Intn(len(huge))] }), 21},
		{"one candidate", build(50, 2, lattice(5)), 1},
		{"chunk edge N-1", build(localityChunk-1, 3, lattice(3)), 17},
		{"chunk edge N", build(localityChunk, 3, lattice(3)), 17},
		{"chunk edge N+1", build(localityChunk+1, 3, lattice(3)), 17},
		{"two chunks and a part", build(2*localityChunk+37, 3, lattice(3)), 17},
		{"260 candidates", build(300, 4, lattice(6)), 260},
	}
	var zeros, infs, maxQ, maxRank int
	for _, tc := range cases {
		n := tc.ds.Len()
		cands := rng.Perm(n)[:tc.cands]
		r := newRunner(tc.ds, Config{K: 1, L: 2, Workers: 2})
		tab := r.newCandidateTable(cands, 2)
		toA := make([]float64, n)
		for a, ca := range cands {
			for p := range toA {
				toA[p] = dist.SegmentalAll(tc.ds.Point(p), tc.ds.Point(ca))
			}
			deltas := []float64{math.Inf(1)}
			for b, cb := range cands {
				if b == a {
					continue
				}
				delta := dist.SegmentalAll(tc.ds.Point(ca), tc.ds.Point(cb))
				if got := tab.dist[a*len(cands)+b]; math.Float64bits(got) != math.Float64bits(delta) {
					t.Fatalf("%s: dist[%d][%d] = %v, want %v", tc.name, a, b, got, delta)
				}
				deltas = append(deltas, delta)
			}
			ts := append(slices.Clone(deltas[1:]), math.Inf(1))
			slices.Sort(ts)
			if !slices.Equal(tab.row(a), ts) {
				t.Fatalf("%s: T_%d = %v, want %v", tc.name, a, tab.row(a), ts)
			}
			for p, v := range toA {
				want := sort.Search(len(ts), func(i int) bool { return ts[i] > v })
				if got := int(tab.rank[a*n+p]); got != want {
					t.Fatalf("%s: rank of point %d for candidate %d = %d, want %d", tc.name, p, a, got, want)
				}
				maxRank = max(maxRank, want)
			}
			for _, delta := range deltas {
				maxQ = max(maxQ, sort.SearchFloat64s(ts, delta))
				switch {
				case delta == 0:
					zeros++
				case math.IsInf(delta, 1):
					infs++
				}
				var want []int
				for p, v := range toA {
					if v < delta {
						want = append(want, p)
					}
				}
				if got := tab.locality(a, delta, nil); !slices.Equal(got, want) {
					t.Fatalf("%s: candidate %d at δ = %v: locality of %d points, want %d\ngot  %v\nwant %v",
						tc.name, a, delta, len(got), len(want), got, want)
				}
			}
		}
	}
	// Each candidate contributes one +Inf radius, k = 1's; the overflow
	// case must add radii that overflowed.
	if zeros == 0 || infs <= 40+13+21+1+4*17+260 {
		t.Fatalf("inputs exercised %d zero and %d infinite radii, want both cases covered", zeros, infs)
	}
	if maxQ <= math.MaxUint8 || maxRank <= math.MaxUint8 {
		t.Fatalf("largest q %d and largest rank %d, want both past one byte", maxQ, maxRank)
	}
}

// TestCountAtMostMatchesSearch checks the table's branch-free rank
// search against sort.Search on ascending rows of every length from 1
// to 70 and of 300, whose entries are +0 and positive values with heavy
// ties, sometimes +Inf, and end on the +Inf sentinel. x runs over 0,
// every entry, the midpoints between distinct entries, values below
// the first entry, and the edge cases −0, the least subnormal, the
// largest finite value, ±Inf and NaNs of either sign.
func TestCountAtMostMatchesSearch(t *testing.T) {
	rng := randx.New(3)
	inf := math.Inf(1)
	edges := []float64{0, math.Copysign(0, -1), -1, math.Inf(-1), inf, math.NaN(),
		math.Float64frombits(0xfff8000000000001), math.SmallestNonzeroFloat64, math.MaxFloat64}
	lengths := []int{300}
	for l := 1; l <= 70; l++ {
		lengths = append(lengths, l)
	}
	for _, l := range lengths {
		for rep := 0; rep < 4; rep++ {
			levels := 1 + rng.Intn(6) // few distinct values: heavy ties
			ts := make([]float64, l)
			for i := 0; i < l-1; i++ {
				v := rng.Intn(levels + 1)
				ts[i] = float64(v) * 0.75
				if v == levels && rep == 3 {
					ts[i] = inf // a distance that overflowed
				}
			}
			ts[l-1] = inf
			slices.Sort(ts)
			xs := append([]float64(nil), edges...)
			for i, v := range ts {
				xs = append(xs, v, v/2)
				if i > 0 && v != ts[i-1] {
					xs = append(xs, ts[i-1]+(v-ts[i-1])/2)
				}
			}
			for _, x := range xs {
				want := sort.Search(len(ts), func(i int) bool { return ts[i] > x })
				if got := countAtMost(ts, x); got != want {
					t.Fatalf("len %d row %v: countAtMost(%v) = %d, sort.Search gives %d", l, ts, x, got, want)
				}
			}
		}
	}
}

// TestIncrementalEvaluateMatchesNaive checks trial-level equivalence
// directly, including after swaps: the cached evaluation of any medoid
// set must reproduce the naive evaluation bit-for-bit. The second
// dataset is an integer lattice, where many points lie at exactly the
// same projected distance from two medoids, so the assignment pass's
// tie-break toward the lower position decides them.
func TestIncrementalEvaluateMatchesNaive(t *testing.T) {
	const n = 500
	r, medoids := incrementalFixture(t, n)
	rng := randx.New(8)
	lattice := dataset.New(6)
	pt := make([]float64, 6)
	for p := 0; p < n; p++ {
		for j := range pt {
			pt[j] = float64(rng.Intn(3))
		}
		lattice.Append(pt)
	}
	runners := []*runner{r, newRunner(lattice, Config{K: 4, L: 3, Seed: 11, Workers: 1})}
	sets := [][]int{
		medoids,
		{10, n / 2, 2 * n / 5, n - 20},  // swap position 1
		{10, n / 2, 2 * n / 5, n - 5},   // swap position 3
		{11, n/2 + 1, 2*n/5 + 1, n - 6}, // swap all
		{10, n / 2, 2 * n / 5, n - 5},   // revisit an earlier set
	}
	for ri, r := range runners {
		e := engineOver(r, sets...)
		for si, set := range sets {
			got := e.evaluate(set)
			want := r.evaluateMedoids(set)
			if math.Float64bits(got.objective) != math.Float64bits(want.objective) {
				t.Fatalf("dataset %d set %d: objective %v vs naive %v", ri, si, got.objective, want.objective)
			}
			if !reflect.DeepEqual(got.dims, want.dims) {
				t.Fatalf("dataset %d set %d: dims %v vs naive %v", ri, si, got.dims, want.dims)
			}
			if !reflect.DeepEqual(got.assign, want.assign) {
				t.Fatalf("dataset %d set %d: assignments differ", ri, si)
			}
			if !reflect.DeepEqual(got.sizes, want.sizes) {
				t.Fatalf("dataset %d set %d: sizes %v vs naive %v", ri, si, got.sizes, want.sizes)
			}
		}
	}
}

// TestIncrementalSteadyStateAllocs proves the zero-alloc claim: once
// the scratch has warmed, hill-climb iterations — cache-hitting
// re-evaluations, single-medoid swaps, and a cycle through more medoids
// at one position than its Z ring holds, so that every trial misses the
// ring and rescans a locality — perform no heap allocations.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	const n = 400
	r, medoids := incrementalFixture(t, n)
	swapped := append([]int(nil), medoids...)
	swapped[1] = n / 7
	cycle := make([][]int, zRing+1)
	for c := range cycle {
		cycle[c] = append([]int(nil), medoids...)
		cycle[c][1] = n/7 + 3*c
	}
	e := engineOver(r, append([][]int{medoids, swapped}, cycle...)...)

	// Warm every buffer both medoid sets can touch.
	e.evaluate(medoids)
	e.evaluate(swapped)
	e.adopt(e.evaluate(medoids))

	if avg := testing.AllocsPerRun(50, func() {
		e.evaluate(medoids)
	}); avg > 0 {
		t.Errorf("steady-state (unchanged medoids) evaluation allocates %.1f times per run, want 0", avg)
	}
	flip := false
	if avg := testing.AllocsPerRun(50, func() {
		if flip {
			e.evaluate(medoids)
		} else {
			e.evaluate(swapped)
		}
		flip = !flip
	}); avg > 0 {
		t.Errorf("steady-state (one swap) evaluation allocates %.1f times per run, want 0", avg)
	}

	for _, set := range cycle {
		e.evaluate(set) // warm the locality lists for every set
	}
	next, misses := 0, 0
	if avg := testing.AllocsPerRun(50, func() {
		before := e.zNext[1]
		e.evaluate(cycle[next])
		if e.zNext[1] != before {
			misses++
		}
		next = (next + 1) % len(cycle)
	}); avg > 0 {
		t.Errorf("steady-state (Z-ring miss) evaluation allocates %.1f times per run, want 0", avg)
	}
	if misses != 51 { // AllocsPerRun adds one warm-up call
		t.Errorf("cycle of %d medoids at one position missed its ring %d times in 51 trials, want every time",
			len(cycle), misses)
	}
}

// zKey is the Z-ring key of one position: its medoid and the bits of
// its locality radius.
type zKey struct {
	medoid int
	delta  uint64
}

// cacheModel is an engine-independent account of which products a
// trial must recompute: per position a FIFO of the last zRing Z keys
// and the last (medoid, dimension set) pair.
type cacheModel struct {
	rings    [][]zKey
	seen     []map[zKey]bool
	lastKey  []zKey
	lastDims [][]int
	lastMed  []int
}

func newCacheModel(k int) *cacheModel {
	m := &cacheModel{rings: make([][]zKey, k), seen: make([]map[zKey]bool, k),
		lastKey: make([]zKey, k), lastDims: make([][]int, k), lastMed: make([]int, k)}
	for i := 0; i < k; i++ {
		m.seen[i] = map[zKey]bool{}
		m.lastMed[i] = -1
	}
	return m
}

// TestIncrementalCacheKeys drives one engine through a scripted
// sequence of medoid sets and checks every trial two ways: its output
// against the naive evaluation, bit for bit, and its recomputations
// against an independent model of the three cache keys. The script
// must exercise each way a key can hit or miss — a kept medoid whose
// δ_i moves because its nearest other medoid was swapped, a Z key
// revisited while still in its ring and after eviction, a kept medoid
// whose dimension set changes and one whose set stays — and a reset
// engine must recompute everything even when every cached value has
// been poisoned.
func TestIncrementalCacheKeys(t *testing.T) {
	const n = 600
	r, base := incrementalFixture(t, n)
	k := len(base)

	// Swapping position 3 for points ever nearer medoid 0 makes each of
	// them medoid 0's nearest other medoid, so δ_0 moves with each swap
	// while position 0 keeps its medoid.
	isMedoid := map[int]bool{}
	for _, m := range base {
		isMedoid[m] = true
	}
	m0 := r.ds.Point(base[0])
	var near []int
	for p := 0; p < n; p++ {
		if !isMedoid[p] {
			near = append(near, p)
		}
	}
	sort.Slice(near, func(a, b int) bool {
		return dist.SegmentalAll(r.ds.Point(near[a]), m0) < dist.SegmentalAll(r.ds.Point(near[b]), m0)
	})
	with3 := func(p int) []int {
		set := append([]int(nil), base...)
		set[3] = p
		return set
	}
	script := [][]int{
		base,
		with3(near[4]),
		base, // every key revisited within the ring
		with3(near[3]),
		with3(near[2]),
		with3(near[1]),
		base, // positions 0 and 3 have missed five times since: evicted
		with3(near[1]),
	}
	e := engineOver(r, script...)

	model := newCacheModel(k)
	var events struct{ deltaMoved, revisitHit, evictedMiss, dimsMoved, dimsKept int }
	check := func(step string, set []int, afterReset bool) {
		t.Helper()
		evals0 := r.counters.DistanceEvals.Load()
		coords0 := r.counters.CoordsVisited.Load()
		recomp0 := r.counters.DistCacheRecomputes.Load()
		zNext := append([]int(nil), e.zNext...)

		got := e.evaluate(set)
		if recomputed := r.counters.DistCacheRecomputes.Load() - recomp0; recomputed != 0 {
			t.Fatalf("%s: trial recomputed %d table distances, want 0", step, recomputed)
		}
		// A trial evaluates no full-dimensional distance: everything it
		// credits is the assignment pass's projected distances.
		assignEvals := r.counters.DistanceEvals.Load() - evals0
		assignCoords := r.counters.CoordsVisited.Load() - coords0
		want := r.evaluateMedoids(set)
		if math.Float64bits(got.objective) != math.Float64bits(want.objective) ||
			!reflect.DeepEqual(got.dims, want.dims) || !reflect.DeepEqual(got.assign, want.assign) ||
			!reflect.DeepEqual(got.sizes, want.sizes) {
			t.Fatalf("%s: incremental trial differs from naive: objective %v vs %v, dims %v vs %v",
				step, got.objective, want.objective, got.dims, want.dims)
		}

		var wantDirty []int
		var dirtyCoords int64
		for i, m := range set {
			delta := math.Inf(1)
			for j, o := range set {
				if j != i {
					delta = math.Min(delta, dist.SegmentalAll(r.ds.Point(m), r.ds.Point(o)))
				}
			}
			key := zKey{m, math.Float64bits(delta)}
			kept := model.lastMed[i] == m
			inRing := false
			for _, c := range model.rings[i] {
				inRing = inRing || c == key
			}
			hit := e.zNext[i] == zNext[i]
			if hit != inRing {
				t.Fatalf("%s: position %d key %+v: Z hit %v, model says %v", step, i, key, hit, inRing)
			}
			switch {
			case !inRing:
				if kept && key != model.lastKey[i] {
					events.deltaMoved++
				}
				if model.seen[i][key] {
					events.evictedMiss++
				}
				model.rings[i] = append(model.rings[i], key)
				if len(model.rings[i]) > zRing {
					model.rings[i] = model.rings[i][1:]
				}
			case key != model.lastKey[i]:
				events.revisitHit++
			}
			model.seen[i][key] = true
			model.lastKey[i] = key

			if !kept || !slices.Equal(model.lastDims[i], got.dims[i]) {
				wantDirty = append(wantDirty, i)
				dirtyCoords += int64(len(got.dims[i]))
				if kept {
					events.dimsMoved++
				}
			} else {
				events.dimsKept++
			}
			model.lastMed[i] = m
			model.lastDims[i] = slices.Clone(got.dims[i])
		}
		if !slices.Equal(e.projDirty, wantDirty) {
			t.Fatalf("%s: projected columns recomputed %v, model says %v", step, e.projDirty, wantDirty)
		}
		if assignEvals != int64(n*len(wantDirty)) {
			t.Fatalf("%s: assignment credited %d evaluations, want N × %d recomputed columns = %d",
				step, assignEvals, len(wantDirty), n*len(wantDirty))
		}
		if assignCoords != int64(n)*dirtyCoords {
			t.Fatalf("%s: assignment credited %d coordinates, want %d", step, assignCoords, int64(n)*dirtyCoords)
		}
		if afterReset && len(wantDirty) != k {
			t.Fatalf("%s: reset engine recomputed %d projected columns, want %d", step, len(wantDirty), k)
		}
	}

	for si, set := range script {
		check(fmt.Sprintf("step %d", si), set, false)
	}
	if events.deltaMoved == 0 || events.revisitHit == 0 || events.evictedMiss == 0 ||
		events.dimsMoved == 0 || events.dimsKept == 0 {
		t.Fatalf("script left a case of the cache keys unexercised: %+v", events)
	}

	// A second "restart" on the same engine: poison every cached value,
	// reset, and replay the script, starting from the set evaluated
	// last, whose every key the engine still holds. Serving any stale
	// entry would now show up in the output, and the model starts empty,
	// so every position must miss its Z ring. The candidate table is
	// read-only for the whole run and survives the reset.
	poison := math.NaN()
	for i := range e.proj {
		e.proj[i] = poison
	}
	for _, slot := range e.zSlots {
		for j := range slot.row {
			slot.row[j] = poison
		}
	}
	e.reset()
	model = newCacheModel(k)
	for si, set := range append([][]int{script[len(script)-1]}, script...) {
		check(fmt.Sprintf("after reset, step %d", si), set, si == 0)
	}
}
