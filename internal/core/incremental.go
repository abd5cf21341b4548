package core

// Incremental hill-climb evaluation. The iterative phase (§2.2, Figure
// 2) replaces only the bad medoids between trials, so most of a trial's
// work repeats an earlier trial's. The incremental engine keys each
// per-position product of a trial by exactly the inputs it depends on
// and recomputes only the products whose key changed:
//
//   - full-dimensional distance columns, keyed by the position's
//     medoid: the point×medoid cache that δ_i and the localities read;
//   - Z rows (FindDimensions, Figure 4), keyed by the medoid and the
//     bits of its locality radius δ_i, in a ring of zRing rows per
//     position; a hit skips both the locality scan and the row;
//   - projected assignment distances (AssignPoints, Figure 5), keyed
//     by the medoid and its exact, ordered dimension set.
//
// A steady-state trial therefore evaluates N·|bad| full-dimensional
// distances, scans the localities of the positions whose Z key
// changed, and evaluates N projected distances per changed dimension
// set; the remaining O(N·k) argmin and the O(N·l) objective pass are
// compare-and-add sweeps. The engine allocates nothing in steady
// state.
//
// Both engines produce bit-identical Results: every cached value is
// the exact float64 the naive pass would recompute (SegmentalAll is
// bitwise symmetric, the Z row and the point metric are pure functions
// of their keys, and the caches store them verbatim), every pass
// preserves the naive accumulation and tie-break order, and all
// randomness flows through the unchanged climb loop. Only the
// distance-evaluation and cache counters differ between engines.

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
// exactly like a freshly built one.
type evaluator interface {
	evaluate(medoids []int) *trialState
	adopt(t *trialState) *trialState
	reset()
	// cacheHitRate reports the fraction of full-dimensional distance
	// columns the latest evaluate served from its cache (0 for engines
	// without one).
	cacheHitRate() float64
}

// newEvaluator builds the engine configured by IncrementalEval. An
// engine serves one climb at a time: the iterative phase builds one
// per concurrently running restart and hands it from restart to
// restart, so engines never share state across goroutines.
func (r *runner) newEvaluator() evaluator {
	if r.cfg.IncrementalEval == EvalNaive {
		return naiveEval{r}
	}
	return newIncrementalEval(r)
}

// naiveEval recomputes every trial from scratch (the pre-cache
// behaviour). Its trials are freshly allocated, so adopt is the
// identity and there is nothing to reset.
type naiveEval struct{ r *runner }

func (e naiveEval) evaluate(medoids []int) *trialState { return e.r.evaluateMedoids(medoids) }
func (e naiveEval) adopt(t *trialState) *trialState    { return t }
func (e naiveEval) reset()                             {}
func (e naiveEval) cacheHitRate() float64              { return 0 }

// zRing is the number of Z rows each position remembers. A position's
// key changes when its medoid is swapped out or when a swap elsewhere
// moves its nearest other medoid, and swapping back restores the old
// key, so a short ring catches most repeats.
const zRing = 4

// zSlot is one cached Z row and the key it was computed for.
type zSlot struct {
	medoid int    // dataset index; -1 = empty
	delta  uint64 // math.Float64bits of δ_i
	row    []float64
}

// incrementalEval owns one climb's caches and trial scratch.
type incrementalEval struct {
	r       *runner
	n, k, d int

	// flat is the point×medoid distance matrix, N×k column-major:
	// column i occupies flat[i·N : (i+1)·N] and holds the
	// full-dimensional segmental distance of every point to the medoid
	// currently at position i. cols are the per-column views.
	flat []float64
	cols [][]float64
	// colMedoid records the dataset index each column is populated for
	// (-1 = never populated). A column is recomputed only when the
	// medoid at its position changes — the swap structure of the hill
	// climb makes that |bad| columns per trial.
	colMedoid []int
	changed   []int // positions recomputed by the current sync

	// zSlots holds the Z-row rings: position i owns
	// zSlots[i·zRing : (i+1)·zRing], and zNext[i] is the slot its next
	// miss overwrites, the oldest one.
	zSlots []zSlot
	zNext  []int

	// proj is the projected-distance matrix, N×k row-major: proj[p·k+i]
	// is the assignment metric from point p to the medoid at position i
	// over that position's dimension set. Column i is valid for the
	// medoid projMedoid[i] (-1 = never populated) and the dimension set
	// projDims[i].
	proj       []float64
	projMedoid []int
	projDims   [][]int
	projDirty  []int // positions recomputed by the current assignment pass
	projCoords int64 // Σ |D_i| over projDirty

	// trialScratch: every buffer an evaluation pass writes, reused
	// across trials.
	scratch trialScratch

	metric func(pt, medoid []float64, dims []int) float64

	// The parallel passes' chunk closures, built once at construction.
	// Each captures only the evaluator — per-trial inputs travel through
	// e.cur, e.changed and e.projDirty — so evaluate never allocates a
	// closure.
	fillFn   func(lo, hi int)
	deltaFn  func(lo, hi int)
	zrowFn   func(lo, hi int)
	assignFn func(lo, hi int)

	// cur is the trial view handed to the climb; it aliases scratch and
	// is overwritten by the next evaluate. best is the adopt target,
	// deep-copied so it survives subsequent trials.
	cur  trialState
	best trialState
}

// trialScratch is the reusable buffer set of one engine's evaluation
// passes: localities, Z rows, dimension picking, assignment, sizes,
// centroids and deviations. All buffers are sized once at
// construction; list buffers keep their capacity across trials.
type trialScratch struct {
	medoidPts  [][]float64 // k point views, by position
	delta      []float64   // k locality radii δ_i
	localities [][]int     // k member lists, scanned on Z-ring misses only
	x          [][]float64 // k zRowInto accumulation rows of d
	z          [][]float64 // k Z rows of d, each aliasing a ring slot
	picker     alloc.Picker
	assign     []int       // n
	sizes      []int       // k
	centroids  [][]float64 // k rows of d; only D_i's coordinates are set
	devs       []float64   // k
}

func newIncrementalEval(r *runner) *incrementalEval {
	n, k, d := r.ds.Len(), r.cfg.K, r.ds.Dims()
	e := &incrementalEval{
		r: r, n: n, k: k, d: d,
		flat:       make([]float64, n*k),
		cols:       make([][]float64, k),
		colMedoid:  make([]int, k),
		changed:    make([]int, 0, k),
		zSlots:     make([]zSlot, k*zRing),
		zNext:      make([]int, k),
		proj:       make([]float64, n*k),
		projMedoid: make([]int, k),
		projDims:   make([][]int, k),
		projDirty:  make([]int, 0, k),
		metric:     r.pointMetric(),
	}
	for i := range e.cols {
		e.cols[i] = e.flat[i*n : (i+1)*n]
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
	cf := make([]float64, k*d)
	s.centroids = make([][]float64, k)
	for i := 0; i < k; i++ {
		s.centroids[i] = cf[i*d : (i+1)*d]
	}
	s.devs = make([]float64, k)

	// One pass over the points, filling every invalidated column: each
	// point row is read once however many medoids moved. Writes are
	// disjoint per point, so results are identical for any worker count.
	e.fillFn = func(lo, hi int) {
		for p := lo; p < hi; p++ {
			pt := e.r.ds.Point(p)
			for _, c := range e.changed {
				e.cols[c][p] = dist.SegmentalAll(pt, s.medoidPts[c])
			}
		}
	}
	e.deltaFn = func(lo, hi int) {
		m := e.cur.medoids
		for i := lo; i < hi; i++ {
			s.delta[i] = math.Inf(1)
			for j := range m {
				if i == j {
					continue
				}
				if d := e.cols[j][m[i]]; d < s.delta[i] {
					s.delta[i] = d
				}
			}
		}
	}
	// One Z row per position: served from the position's ring when its
	// (medoid, δ_i) key is there, otherwise computed into the oldest
	// slot from a fresh locality scan. The pass parallelizes over
	// positions (disjoint rings and lists, ascending point order)
	// rather than over points: with the distances cached the scan is a
	// compare-and-append sweep, too cheap to justify the naive path's
	// per-chunk list merging.
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
			lst := s.localities[i][:0]
			col := e.cols[i]
			di := s.delta[i]
			for p := 0; p < e.n; p++ {
				if col[p] < di {
					lst = append(lst, p)
				}
			}
			s.localities[i] = lst
			slot := &ring[e.zNext[i]]
			e.zNext[i] = (e.zNext[i] + 1) % zRing
			slot.medoid, slot.delta = m, bits
			s.z[i] = e.r.zRowInto(m, lst, s.x[i], slot.row)
		}
	}
	// One pass over the points: recompute the dirty projected columns,
	// then take each point's nearest position over all k columns with
	// refineRows's start (0, +Inf) and strict <, so ties still go to
	// the lower position.
	e.assignFn = func(lo, hi int) {
		dims := e.cur.dims
		for p := lo; p < hi; p++ {
			pt := e.r.ds.Point(p)
			row := e.proj[p*e.k : (p+1)*e.k]
			for _, c := range e.projDirty {
				row[c] = e.metric(pt, s.medoidPts[c], dims[c])
			}
			bestIdx, bestDist := 0, math.Inf(1)
			for i, d := range row {
				if d < bestDist {
					bestIdx, bestDist = i, d
				}
			}
			s.assign[p] = bestIdx
		}
		evals := int64(hi - lo)
		e.r.creditEvals(evals*int64(len(e.projDirty)), evals*e.projCoords)
		e.r.counters.PointsScanned.Add(evals)
	}
	return e
}

// reset forgets every cached product — distance columns, Z rings and
// projected columns — so the next evaluate recomputes everything, as a
// freshly built engine would. The buffers are kept.
func (e *incrementalEval) reset() {
	for i := range e.colMedoid {
		e.colMedoid[i] = -1
		e.projMedoid[i] = -1
		e.projDims[i] = e.projDims[i][:0]
		e.zNext[i] = 0
	}
	for i := range e.zSlots {
		e.zSlots[i].medoid = -1
	}
}

// evaluate runs one hill-climbing trial against the caches: column
// sync, localities and dimensions, assignment and objective. The
// returned trial aliases the engine's scratch. Per-trial inputs are
// staged in e.cur up front so the prebuilt chunk closures can read
// them.
func (e *incrementalEval) evaluate(medoids []int) *trialState {
	t := &e.cur
	t.medoids = append(t.medoids[:0], medoids...)
	e.sync(t.medoids)
	t.dims = e.findDimensions()
	e.assign()
	tallySizes(e.scratch.assign, e.scratch.sizes)
	t.objective = e.r.evaluateClustersInto(e.scratch.assign, e.scratch.sizes, t.dims,
		e.scratch.centroids, e.scratch.devs)
	t.assign = e.scratch.assign
	t.sizes = e.scratch.sizes
	t.badMedoids = nil
	return t
}

// sync recomputes the cache columns whose medoid changed since the
// previous trial — all k on the first call, |bad| afterwards — and
// credits the cache counters. DistCacheHits counts the entries the
// trial serves from cache rather than recomputing (the unchanged
// columns' N entries plus the k·(k−1) medoid-to-medoid reads of the
// δ pass), DistCacheRecomputes the evaluations actually performed here.
func (e *incrementalEval) sync(medoids []int) {
	e.changed = e.changed[:0]
	for i, m := range medoids {
		if e.colMedoid[i] != m {
			e.colMedoid[i] = m
			e.scratch.medoidPts[i] = e.r.ds.Point(m)
			e.changed = append(e.changed, i)
		}
	}
	if len(e.changed) > 0 {
		parallel.For(e.n, e.r.innerWorkers, e.fillFn)
	}
	recomputed := int64(len(e.changed)) * int64(e.n)
	e.r.creditEvals(recomputed, recomputed*int64(e.d))
	e.r.counters.DistCacheRecomputes.Add(recomputed)
	e.r.counters.DistCacheHits.Add(int64(e.k-len(e.changed))*int64(e.n) + int64(e.k)*int64(e.k-1))
}

// findDimensions is the cached FindDimensions (paper Figure 4). δ_i is
// the minimum over the other medoids' columns evaluated at medoid i's
// dataset row. A position whose (medoid, δ_i) key misses its Z ring
// scans its locality — every point whose column-i entry is strictly
// below δ_i, the same values, scan order and strict inequality as the
// naive computeLocalities, hence the same list and the same row. The
// dimension budget then runs through the reused picker; the returned
// rows alias it and are valid until the next call. Reads the current
// trial's medoids from e.cur.
func (e *incrementalEval) findDimensions() [][]int {
	s := &e.scratch
	parallel.For(e.k, e.r.innerWorkers, e.deltaFn)
	parallel.For(e.k, e.r.innerWorkers, e.zrowFn)
	// The locality pass counts as one scan over the points whether its
	// rows came from the rings or not, exactly as in the naive engine.
	e.r.counters.PointsScanned.Add(int64(e.n))
	dims, err := s.picker.PickSmallest(s.z, e.r.cfg.K*e.r.cfg.L, 2)
	if err != nil {
		// Unreachable for validated configs, exactly as in the naive
		// findDimensions.
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

// cacheHitRate reports the fraction of the k distance columns the
// latest sync reused rather than recomputed: 0 on the first trial
// (every column fills), (k−|bad|)/k in steady state.
func (e *incrementalEval) cacheHitRate() float64 {
	if e.k == 0 {
		return 0
	}
	return float64(e.k-len(e.changed)) / float64(e.k)
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
