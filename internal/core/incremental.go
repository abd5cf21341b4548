package core

// Incremental hill-climb evaluation. The iterative phase (§2.2, Figure
// 2) replaces only the bad medoids between trials, so most of a trial's
// work repeats an earlier trial's. The incremental engine reads every
// full-dimensional distance from the run's candidate table (see
// candidateTable), keys each remaining per-position product of a trial
// by exactly the inputs it depends on, and recomputes only the products
// whose key changed:
//
//   - Z rows (FindDimensions, Figure 4), keyed by the medoid and the
//     bits of its locality radius δ_i, in a ring of zRing rows per
//     position; a hit skips both the locality scan and the row;
//   - projected assignment distances (AssignPoints, Figure 5), keyed
//     by the medoid and its exact, ordered dimension set.
//
// The climb runs the engine once per scored trial: a trial whose
// ordered medoid list its restart has already scored reuses that
// objective and runs no pass (see climb). A steady-state scored trial
// evaluates no full-dimensional distance: it reads k·(k−1) candidate
// distances for the δ_i, scans the table's ranks for the localities of
// the positions whose Z key changed, and evaluates N projected
// distances per changed dimension set; the remaining O(N·k) argmin and
// the O(N·l) objective pass are compare-and-add sweeps. The engine
// allocates nothing in steady state.
//
// The engine's Results are bit-identical to those of recomputing every
// trial from scratch, as the tests' reference engine does: the table
// holds the exact float64 distances and localities a direct scan
// computes, the Z row and the point metric are pure functions of their
// keys and the caches store them verbatim, every pass preserves the
// direct computation's accumulation and tie-break order, and all
// randomness flows through the climb loop. Only the
// distance-evaluation and cache counters differ.

import (
	"math"
	"slices"

	"proclus/internal/alloc"
	"proclus/internal/dist"
	"proclus/internal/parallel"
)

// evaluator is the hill climb's trial engine. evaluate scores one
// medoid set; the returned trial may alias engine-owned scratch and is
// valid only until the next evaluate. adopt snapshots a trial the
// climb wants to keep as its best, returning a state that survives
// later evaluations but stays engine memory until the next reset.
// reset forgets every cached product, so the engine then behaves
// exactly like a freshly built one. Run and RunStream climb on the
// incremental engine; the interface lets the tests' naive reference
// climb on its own.
type evaluator interface {
	evaluate(medoids []int) *trialState
	adopt(t *trialState) *trialState
	reset()
	// cacheHitRate reports the fraction of the k projected-distance
	// columns the latest evaluate served from its cache (0 for engines
	// without one).
	cacheHitRate() float64
}

// zRing is the number of Z rows each position remembers. A position's
// key changes when its medoid is swapped out or when a swap elsewhere
// moves its nearest other medoid, and swapping back restores the old
// key, so a short ring catches most repeats.
const zRing = 4

// assignTile is the number of points a kernel pass over the points
// handles at a time: the assignment pass fills its dirty projected
// columns for a tile before it takes the tile's argmins, so the tile's
// rows stay in cache across the columns, where a whole column at a time
// would stream the point matrix once per column. refineRows, the
// candidate table's rank fill and the objective's deviation sums work
// in chunks of the same size, with their columns on the stack.
const assignTile = 256

// zSlot is one cached Z row and the key it was computed for.
type zSlot struct {
	medoid int    // dataset index; -1 = empty
	delta  uint64 // math.Float64bits of δ_i
	row    []float64
}

// incrementalEval owns one climb's caches and trial scratch.
type incrementalEval struct {
	r    *runner
	tab  *candidateTable
	n, k int

	// zSlots holds the Z-row rings: position i owns
	// zSlots[i·zRing : (i+1)·zRing], and zNext[i] is the slot its next
	// miss overwrites, the oldest one.
	zSlots []zSlot
	zNext  []int

	// proj is the projected-distance matrix, k×N column-major:
	// proj[i·N+p] is the assignment metric from point p to the medoid
	// at position i over that position's dimension set. Column i is
	// valid for the medoid projMedoid[i] (-1 = never populated) and the
	// dimension set projDims[i].
	proj       []float64
	projMedoid []int
	projDims   [][]int
	projDirty  []int // positions recomputed by the current assignment pass
	projCoords int64 // Σ |D_i| over projDirty

	// trialScratch: every buffer an evaluation pass writes, reused
	// across trials.
	scratch trialScratch

	// The parallel passes' chunk closures, built once at construction.
	// Each captures only the evaluator — per-trial inputs travel through
	// e.cur, the scratch and e.projDirty — so evaluate never allocates a
	// closure.
	zrowFn   func(lo, hi int)
	assignFn func(lo, hi int)

	// cur is the trial view handed to the climb; it aliases scratch and
	// is overwritten by the next evaluate. best is the adopt target,
	// deep-copied so it survives subsequent trials.
	cur  trialState
	best trialState
}

// trialScratch is the reusable buffer set of one engine's evaluation
// passes: localities, Z rows, dimension picking, assignment, sizes and
// the objective pass. All buffers are sized once at construction; list
// buffers keep their capacity across trials.
type trialScratch struct {
	cand       []int       // k candidate-table rows of the medoids, by position
	medoidPts  [][]float64 // k point views, by position
	delta      []float64   // k locality radii δ_i
	localities [][]int     // k member lists, scanned on Z-ring misses only
	x          [][]float64 // k zRowInto accumulation rows of d
	z          [][]float64 // k Z rows of d, each aliasing a ring slot
	picker     alloc.Picker
	assign     []int // n
	sizes      []int // k
	objective  objectiveScratch
}

// newEngine builds a trial engine over the run's candidate table. An
// engine serves one climb at a time: the iterative phase builds one per
// concurrently running restart and hands it from restart to restart, so
// engines share only the read-only table.
func newEngine(r *runner, tab *candidateTable) *incrementalEval {
	n, k, d := r.ds.Len(), r.cfg.K, r.ds.Dims()
	e := &incrementalEval{
		r: r, tab: tab, n: n, k: k,
		zSlots:     make([]zSlot, k*zRing),
		zNext:      make([]int, k),
		proj:       make([]float64, n*k),
		projMedoid: make([]int, k),
		projDims:   make([][]int, k),
		projDirty:  make([]int, 0, k),
	}
	rows := make([]float64, k*zRing*d)
	for i := range e.zSlots {
		e.zSlots[i].row = rows[i*d : (i+1)*d]
	}
	// A dimension set never exceeds d entries, so the key copies never
	// grow past their initial capacity.
	keys := make([]int, k*d)
	for i := range e.projDims {
		e.projDims[i] = keys[i*d : i*d : (i+1)*d]
	}
	e.reset()
	s := &e.scratch
	s.cand = make([]int, k)
	s.medoidPts = make([][]float64, k)
	s.delta = make([]float64, k)
	s.localities = make([][]int, k)
	xf := make([]float64, k*d)
	s.x = make([][]float64, k)
	for i := 0; i < k; i++ {
		s.x[i] = xf[i*d : (i+1)*d]
	}
	s.z = make([][]float64, k)
	s.assign = make([]int, n)
	s.sizes = make([]int, k)
	s.objective = newObjectiveScratch(n, k, d)

	// One Z row per position: served from the position's ring when its
	// (medoid, δ_i) key is there, otherwise computed into the oldest
	// slot from a fresh locality scan of the table's ranks. The pass
	// parallelizes over positions (disjoint rings and lists, ascending
	// point order) rather than over points: the scan is a
	// compare-and-append sweep, too cheap to justify merging per-chunk
	// lists.
	e.zrowFn = func(lo, hi int) {
	positions:
		for i := lo; i < hi; i++ {
			m, bits := e.cur.medoids[i], math.Float64bits(s.delta[i])
			ring := e.zSlots[i*zRing : (i+1)*zRing]
			for j := range ring {
				if ring[j].medoid == m && ring[j].delta == bits {
					s.z[i] = ring[j].row
					continue positions
				}
			}
			s.localities[i] = e.tab.locality(s.cand[i], s.delta[i], s.localities[i][:0])
			slot := &ring[e.zNext[i]]
			e.zNext[i] = (e.zNext[i] + 1) % zRing
			slot.medoid, slot.delta = m, bits
			s.z[i] = e.r.zRowInto(m, s.localities[i], s.x[i], slot.row)
		}
	}
	// One pass over the points, a tile of assignTile points at a time:
	// recompute the tile's entries of every dirty projected column, then
	// take each of its points' nearest position over all k columns with
	// refineRows's start (0, +Inf) and strict <, so ties still go to
	// the lower position. A column entry is dist.Segmental, from the
	// batch kernel dist.SegmentalRows. Every entry is a sum of absolute
	// values: +0, positive, +Inf or NaN. Read as unsigned integers, the
	// bits of the first three order as their values do, and a NaN's lie
	// above +Inf's, so a NaN never wins, as under the float compare. The
	// argmin therefore compares bits, which compiles to conditional moves
	// where the float compare's branch mispredicts.
	e.assignFn = func(lo, hi int) {
		dims, d := e.cur.dims, e.r.ds.Dims()
		for t0 := lo; t0 < hi; t0 += assignTile {
			t1 := min(t0+assignTile, hi)
			for _, c := range e.projDirty {
				col := e.proj[c*n+t0 : c*n+t1]
				dist.SegmentalRows(col, e.r.ds.Rows(t0, t1), d, nil, dims[c], s.medoidPts[c])
			}
			for p := t0; p < t1; p++ {
				bestIdx, bestBits := 0, math.Float64bits(math.Inf(1))
				for i := 0; i < k; i++ {
					if b := math.Float64bits(e.proj[i*n+p]); b < bestBits {
						bestIdx, bestBits = i, b
					}
				}
				s.assign[p] = bestIdx
			}
		}
		evals := int64(hi - lo)
		e.r.creditEvals(evals*int64(len(e.projDirty)), evals*e.projCoords)
		e.r.counters.PointsScanned.Add(evals)
	}
	return e
}

// reset forgets every cached product — Z rings and projected columns
// — so the next evaluate recomputes everything, as a freshly built
// engine would. The buffers, and the run's candidate table, are kept.
func (e *incrementalEval) reset() {
	for i := range e.projMedoid {
		e.projMedoid[i] = -1
		e.projDims[i] = e.projDims[i][:0]
		e.zNext[i] = 0
	}
	for i := range e.zSlots {
		e.zSlots[i].medoid = -1
	}
}

// evaluate runs one hill-climbing trial against the candidate table
// and the caches: localities and dimensions, assignment and objective.
// The returned trial aliases the engine's scratch. Per-trial inputs are
// staged in e.cur and the scratch up front so the prebuilt chunk
// closures can read them. DistCacheHits counts the table entries a
// scored trial stands to read in place of evaluating them: N ranks per
// position and the k·(k−1) medoid-to-medoid distances of the δ pass.
func (e *incrementalEval) evaluate(medoids []int) *trialState {
	t := &e.cur
	t.medoids = append(t.medoids[:0], medoids...)
	s := &e.scratch
	for i, m := range t.medoids {
		s.cand[i] = e.tab.slot(m)
		s.medoidPts[i] = e.r.ds.Point(m)
	}
	e.r.counters.DistCacheHits.Add(int64(e.k)*int64(e.n) + int64(e.k)*int64(e.k-1))
	t.dims = e.findDimensions()
	e.assign()
	tallySizes(s.assign, s.sizes)
	t.objective = e.r.evaluateClustersInto(s.assign, s.sizes, t.dims, &s.objective)
	t.assign = s.assign
	t.sizes = s.sizes
	t.badMedoids = nil
	return t
}

// findDimensions is the cached FindDimensions (paper Figure 4). δ_i is
// the least table distance from medoid i to another medoid, taken over
// the other positions in order. A position whose (medoid, δ_i) key
// misses its Z ring scans its locality from the table — every point
// strictly within δ_i, in ascending order — and recomputes its row. The
// dimension budget then runs through the reused picker; the returned
// rows alias it and are valid until the next call. Reads the current
// trial's medoids from e.cur.
func (e *incrementalEval) findDimensions() [][]int {
	s := &e.scratch
	c := e.tab.c
	for i, a := range s.cand {
		s.delta[i] = math.Inf(1)
		for j, b := range s.cand {
			if i == j {
				continue
			}
			if d := e.tab.dist[a*c+b]; d < s.delta[i] {
				s.delta[i] = d
			}
		}
	}
	parallel.For(e.k, e.r.innerWorkers, e.zrowFn)
	// The locality pass counts as one scan over the points whether its
	// rows came from the rings or not.
	e.r.counters.PointsScanned.Add(int64(e.n))
	dims, err := s.picker.PickSmallest(s.z, e.r.cfg.K*e.r.cfg.L, 2)
	if err != nil {
		// Unreachable for validated configs, as in runner.findDimensions.
		panic("proclus: dimension allocation failed: " + err.Error())
	}
	return dims
}

// assign is the cached AssignPoints (paper Figure 5): it marks the
// projected columns whose (medoid, dimension set) key changed, then
// runs the one pass over the points that recomputes them and assigns
// every point. Evaluations are credited per recomputed (point,
// position) pair. Reads the current trial's medoids and dimension sets
// from e.cur.
func (e *incrementalEval) assign() {
	e.projDirty = e.projDirty[:0]
	e.projCoords = 0
	dims := e.cur.dims
	for i, m := range e.cur.medoids {
		if e.projMedoid[i] != m || !slices.Equal(e.projDims[i], dims[i]) {
			e.projMedoid[i] = m
			e.projDims[i] = append(e.projDims[i][:0], dims[i]...)
			e.projDirty = append(e.projDirty, i)
			e.projCoords += int64(len(dims[i]))
		}
	}
	parallel.For(e.n, e.r.innerWorkers, e.assignFn)
}

// cacheHitRate reports the fraction of the k projected-distance
// columns the latest assignment pass reused rather than recomputed: 0
// on the first trial (every column fills), and in steady state the
// share of positions whose medoid and dimension set both stayed.
func (e *incrementalEval) cacheHitRate() float64 {
	if e.k == 0 {
		return 0
	}
	return float64(e.k-len(e.projDirty)) / float64(e.k)
}

// adopt deep-copies a trial into the engine's persistent best state:
// the climb's best must survive scratch reuse by later iterations. The
// copy runs only on improvements, so steady-state iterations stay
// allocation-free once the buffers have grown.
func (e *incrementalEval) adopt(t *trialState) *trialState {
	b := &e.best
	b.medoids = append(b.medoids[:0], t.medoids...)
	b.assign = append(b.assign[:0], t.assign...)
	b.sizes = append(b.sizes[:0], t.sizes...)
	if b.dims == nil {
		// k is fixed for the whole run, so one row set suffices.
		b.dims = make([][]int, len(t.dims))
	}
	for i, row := range t.dims {
		b.dims[i] = append(b.dims[i][:0], row...)
	}
	b.objective = t.objective
	b.badMedoids = nil
	return b
}
