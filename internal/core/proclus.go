package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/greedy"
	"proclus/internal/obs"
	"proclus/internal/parallel"
	"proclus/internal/randx"
	"proclus/internal/sample"
)

// Run executes PROCLUS on ds with the given configuration.
func Run(ds *dataset.Dataset, cfg Config) (*Result, error) {
	return RunContext(context.Background(), ds, cfg)
}

// RunContext executes PROCLUS on ds, aborting between hill-climbing
// trials when ctx is cancelled. The context is checked at trial
// granularity — one trial over a large dataset completes before the
// cancellation takes effect.
func RunContext(ctx context.Context, ds *dataset.Dataset, cfg Config) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(ds); err != nil {
		return nil, err
	}
	r := &runner{ctx: ctx, ds: ds, cfg: cfg, rng: randx.New(cfg.Seed),
		obs: cfg.Observer, series: newRunnerSeries(cfg.Series)}
	return r.run()
}

// runner carries the state of one PROCLUS execution.
type runner struct {
	ctx   context.Context
	ds    *dataset.Dataset
	cfg   Config
	rng   *randx.Rand
	stats Stats
	// innerWorkers bounds the goroutines of the data-parallel passes
	// (localities, dimension rows, assignment, outliers). It is set per
	// phase before any worker goroutine starts: the full budget during
	// initialization and refinement, the budget divided by the number of
	// concurrent restarts during the iterative phase. Zero selects
	// GOMAXPROCS, which keeps white-box tests that construct runners
	// directly on the old behaviour.
	innerWorkers int
	// obs receives structured events; nil disables emission.
	obs obs.Observer
	// counters accumulates hot-path work, batched per worker chunk so
	// it stays cheap enough to keep always on.
	counters obs.Counters
	// series records per-iteration and per-block trajectories; nil —
	// the default, recording is opt-in via Config.Series — disables it.
	series *runnerSeries
}

// emit forwards an event to the attached observer. The nil check is
// the disabled fast path: no interface call happens without an
// observer. Emission sites that must allocate to build their event
// (copying slices) guard on r.obs != nil themselves.
func (r *runner) emit(e obs.Event) {
	if r.obs != nil {
		e.Algorithm = "proclus"
		r.obs.Observe(e)
	}
}

// singleBlock reports the work timed from start as the one block of
// the named pass: one EvBlock event and one point in the pass's block
// series, both only when an observer or a series store is attached.
func (r *runner) singleBlock(pass string, points int, start time.Time) {
	if r.obs == nil && r.series == nil {
		return
	}
	secs := time.Since(start).Seconds()
	bs := r.series.blocks(pass)
	bs.record(1, points, secs)
	r.emit(obs.Event{Type: obs.EvBlock, Phase: pass, Block: 1, Points: points, Seconds: secs})
}

// cancelled reports a pending context cancellation. A nil context
// (white-box tests construct runners directly) never cancels.
func (r *runner) cancelled() error {
	if r.ctx == nil {
		return nil
	}
	select {
	case <-r.ctx.Done():
		return r.ctx.Err()
	default:
		return nil
	}
}

func (r *runner) run() (*Result, error) {
	r.stats.DatasetPoints = r.ds.Len()
	r.stats.DatasetDims = r.ds.Dims()
	runStart := time.Now()
	r.emit(obs.Event{Type: obs.EvRunStart, Points: r.ds.Len(), Dims: r.ds.Dims()})

	workers := parallel.Workers(r.cfg.Workers)

	r.emit(obs.Event{Type: obs.EvPhaseStart, Phase: "initialize"})
	start := time.Now()
	r.innerWorkers = workers
	candidates, err := r.initialize()
	if err != nil {
		return nil, err
	}
	r.stats.InitDuration = time.Since(start)
	r.emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "initialize",
		Candidates: len(candidates), Seconds: r.stats.InitDuration.Seconds()})

	best, totalIterations, err := r.iteratePhase(candidates, workers)
	if err != nil {
		return nil, err
	}

	r.emit(obs.Event{Type: obs.EvPhaseStart, Phase: "refine"})
	start = time.Now()
	r.innerWorkers = workers
	res := r.refine(best)
	r.stats.RefineDuration = time.Since(start)
	r.emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "refine", Seconds: r.stats.RefineDuration.Seconds()})

	res.Iterations = totalIterations
	res.Seed = r.cfg.Seed
	res.Config = r.cfg.reportConfig()
	r.stats.Counters = r.counters.Snapshot()
	r.stats.Series = r.cfg.Series.Snapshot()
	res.Stats = r.stats
	if r.obs != nil { // NumOutliers scans every assignment
		r.emit(obs.Event{Type: obs.EvRunEnd, Objective: res.Objective,
			Clusters: len(res.Clusters), Outliers: res.NumOutliers(),
			Iteration: totalIterations, Seconds: time.Since(runStart).Seconds()})
	}
	return res, nil
}

// iteratePhase runs the hill-climb restarts over r.ds and merges their
// outcomes, covering the full iterative phase: event emission, restart
// timing, the worker-budget split, and the deterministic best-trial
// merge. It is shared by the in-memory engine (r.ds is the full
// dataset) and the streamed engine (r.ds is the resident sample); in
// both cases candidates index into r.ds. workers is the run's total
// goroutine budget; r.innerWorkers is left at each restart's share.
func (r *runner) iteratePhase(candidates []int, workers int) (*trialState, int, error) {
	r.emit(obs.Event{Type: obs.EvPhaseStart, Phase: "iterate"})
	start := time.Now()
	// Every restart's engine reads one candidate table, built here with
	// the whole worker budget before any restart starts. The build is
	// the one block of the "candidates" pass.
	tab := r.newCandidateTable(candidates, workers)
	r.singleBlock("candidates", r.ds.Len(), start)
	restarts := r.cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	// Every restart hill-climbs on its own generator, split off the
	// master stream serially before any restart runs. The streams — and
	// with them every downstream decision — therefore depend only on the
	// seed, never on the Workers value or the goroutine schedule, so
	// concurrent and serial execution are bit-identical.
	rngs := make([]*randx.Rand, restarts)
	for i := range rngs {
		rngs[i] = r.rng.Split()
	}
	// Split the worker budget: up to `concurrent` restarts run at once,
	// each entitled to an equal share of goroutines for its data-parallel
	// passes. A single restart keeps the whole budget.
	concurrent := workers
	if concurrent > restarts {
		concurrent = restarts
	}
	r.innerWorkers = workers / concurrent
	if r.innerWorkers < 1 {
		r.innerWorkers = 1
	}
	// Restarts borrow their trial engines from a pool. No more than
	// `concurrent` climbs run at once, so no more engines (and caches)
	// are ever built, and a send back never blocks. climb resets the
	// engine it borrows, so which engine serves which restart cannot
	// change a result or a counter.
	engines := make(chan evaluator, concurrent)
	outcomes := make([]restartOutcome, restarts)
	cancelErr := parallel.EachContext(r.ctx, restarts, concurrent, func(i int) {
		r.emit(obs.Event{Type: obs.EvRestartStart, Restart: i + 1})
		restartStart := time.Now()
		var ev evaluator
		select {
		case ev = <-engines:
		default:
			ev = newEngine(r, tab)
		}
		o := &outcomes[i]
		*o = r.climb(candidates, i+1, rngs[i], ev)
		engines <- ev
		o.duration = time.Since(restartStart)
		if o.err != nil {
			return
		}
		r.emit(obs.Event{Type: obs.EvRestartEnd, Restart: i + 1,
			Iteration: o.iterations, Objective: o.trial.objective, Seconds: o.duration.Seconds()})
	})
	// Merge in restart order so the trace, the per-restart stats and the
	// best-trial tie-break (strictly-lower objective wins, so equal
	// objectives keep the lowest restart index) are deterministic.
	var best *trialState
	totalIterations := 0
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			return nil, 0, o.err
		}
		if o.trial == nil {
			// Restart never ran: the context was cancelled before it was
			// dispatched.
			if cancelErr != nil {
				return nil, 0, cancelErr
			}
			return nil, 0, fmt.Errorf("proclus: restart %d missing without cancellation", i+1)
		}
		r.stats.ObjectiveTrace = append(r.stats.ObjectiveTrace, o.trace...)
		r.stats.Restarts = append(r.stats.Restarts, RestartStats{
			Iterations:    o.iterations,
			Reused:        o.reused,
			BestObjective: o.trial.objective,
			Duration:      o.duration,
		})
		totalIterations += o.iterations
		if best == nil || o.trial.objective < best.objective {
			best = o.trial
		}
	}
	if cancelErr != nil {
		return nil, 0, cancelErr
	}
	r.stats.IterateDuration = time.Since(start)
	r.emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "iterate",
		Iteration: totalIterations, Seconds: r.stats.IterateDuration.Seconds()})
	return best, totalIterations, nil
}

// initialize selects the B·k candidate medoids: it draws an A·k random
// sample and thins it by farthest-first traversal (§2.1, Figure 3). The
// returned indices refer to the full dataset.
func (r *runner) initialize() ([]int, error) {
	n := r.ds.Len()
	medoidCount := r.cfg.MedoidFactor * r.cfg.K
	if medoidCount > n {
		medoidCount = n
	}
	sampleSize := r.cfg.SampleFactor * r.cfg.K
	if sampleSize > n {
		sampleSize = n
	}
	s, err := sample.WithoutReplacement(r.rng, n, sampleSize)
	if err != nil {
		return nil, fmt.Errorf("proclus: initialization sample: %w", err)
	}
	if medoidCount > len(s) {
		medoidCount = len(s)
	}
	// The traversal batches its own evaluation accounting per chunk, so
	// the distance closure stays free of per-call atomics.
	picks, err := greedy.FarthestFirstBounded(r.rng, len(s), medoidCount, r.innerWorkers,
		fullDistance(func(i int) []float64 { return r.ds.Point(s[i]) }), nil, &r.counters)
	if err != nil {
		return nil, fmt.Errorf("proclus: greedy medoid selection: %w", err)
	}
	candidates := make([]int, len(picks))
	for i, p := range picks {
		candidates[i] = s[p]
	}
	return candidates, nil
}

// trialState is one evaluated clustering during the hill climb.
type trialState struct {
	medoids    []int   // dataset indices, len k
	dims       [][]int // per-medoid dimension sets
	assign     []int   // per-point cluster index (no outliers yet)
	sizes      []int   // per-cluster point counts
	objective  float64
	badMedoids []int // positions (0..k-1) of bad medoids within medoids
}

// restartOutcome collects one hill-climb restart's results so the
// restart engine can merge them in restart order after concurrent
// execution.
type restartOutcome struct {
	trial      *trialState
	iterations int
	// reused counts the trials whose medoid list the climb had already
	// scored; the other iterations − reused trials ran the engine.
	reused   int
	trace    []float64
	duration time.Duration
	err      error
}

// climb performs the hill climb of §2.2 and returns the restart's
// outcome: the best trial, the trial count, the repeats among them,
// and the objective of every trial in order. restart is the 1-based
// restart index, used for event context and errors. A trial whose
// objective is not finite ends the climb with an error: every value is
// finite, but their sums overflowed float64, and no trial of such an
// input could be compared with another.
//
// The climb scores each ordered medoid list once. replaceBad keeps
// proposing lists the climb has already scored, so a memo maps every
// scored list to its objective, and a repeat reuses it without running
// the engine. The objective is a function of the ordered list alone,
// since every engine cache is keyed exactly, and the best objective is
// at most that of every list scored so far and never rises, so a
// repeat can never improve: best, findBadMedoids and replaceBad see,
// and replaceBad draws, exactly what scoring the repeat again would
// have given them. A repeat still counts as a trial toward
// MaxNoImprove and MaxIterations, and its objective enters the trace.
// The memo belongs to one climb, so which trials are repeats does not
// depend on how restarts are scheduled.
//
// rng is the restart's private generator and ev the trial engine it
// has to itself until it returns: climb is called concurrently for
// different restarts and must not touch shared mutable state beyond
// the atomic counters and the (concurrency-safe) observer. The
// returned trial is a copy that owns its memory, so ev can serve the
// next restart.
func (r *runner) climb(candidates []int, restart int, rng *randx.Rand, ev evaluator) restartOutcome {
	k := r.cfg.K
	if len(candidates) < k {
		return restartOutcome{err: fmt.Errorf("proclus: only %d candidate medoids for k = %d", len(candidates), k)}
	}
	perm := rng.Perm(len(candidates))
	current := make([]int, k)
	for i := 0; i < k; i++ {
		current[i] = candidates[perm[i]]
	}

	// A reset engine behaves exactly like a fresh one: nothing the
	// previous restart cached is served, so each restart's hits, and
	// with them the counters, are the same at every worker count.
	ev.reset()
	rs := r.series.restart(restart)
	var best *trialState
	var trace []float64
	scored := make(map[string]float64)
	var key []byte
	bestObjective := math.Inf(1)
	noImprove, iterations, reused := 0, 0, 0
	for {
		iterations++
		trialStart := time.Now()
		key = medoidKey(key[:0], current)
		objective, repeat := scored[string(key)]
		improved := false
		// A repeat ran no assignment pass; the series reads it as one
		// that served every projected column from the cache.
		hitRate := 1.0
		if repeat {
			reused++
		} else {
			trial := ev.evaluate(current)
			objective = trial.objective
			if math.IsNaN(objective) || math.IsInf(objective, 0) {
				return restartOutcome{err: fmt.Errorf("proclus: restart %d, trial %d: the objective overflowed to %v; "+
					"the coordinates are too large in magnitude for float64 sums", restart, iterations, objective)}
			}
			scored[string(key)] = objective
			improved = objective < bestObjective
			if improved {
				bestObjective = objective
				best = ev.adopt(trial)
				best.badMedoids = r.findBadMedoids(best)
			}
			hitRate = ev.cacheHitRate()
		}
		trace = append(trace, objective)
		if improved {
			noImprove = 0
		} else {
			noImprove++
		}
		if r.series != nil {
			rs.record(iterations, objective, bestObjective, improved, len(best.badMedoids), hitRate)
		}
		r.emit(obs.Event{Type: obs.EvIteration, Restart: restart, Iteration: iterations,
			Objective: objective, Best: bestObjective, Improved: improved,
			Seconds: time.Since(trialStart).Seconds()})
		if noImprove >= r.cfg.MaxNoImprove || iterations >= r.cfg.MaxIterations {
			break
		}
		if err := r.cancelled(); err != nil {
			return restartOutcome{err: err}
		}
		next, ok := r.replaceBad(best, candidates, rng)
		if !ok {
			// Every candidate already serves as a medoid; no neighbouring
			// vertex exists in the search graph.
			break
		}
		if r.obs != nil {
			r.emit(obs.Event{Type: obs.EvMedoidSwap, Restart: restart, Iteration: iterations,
				Replaced: append([]int(nil), best.badMedoids...)})
		}
		current = next
	}
	return restartOutcome{trial: best.clone(), iterations: iterations, reused: reused, trace: trace}
}

// medoidKey appends to dst the memo key of an ordered medoid list: each
// dataset index as eight little-endian bytes, in position order.
func medoidKey(dst []byte, medoids []int) []byte {
	for _, m := range medoids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m))
	}
	return dst
}

// clone deep-copies a trial.
func (t *trialState) clone() *trialState {
	c := *t
	c.medoids = slices.Clone(t.medoids)
	c.assign = slices.Clone(t.assign)
	c.sizes = slices.Clone(t.sizes)
	c.badMedoids = slices.Clone(t.badMedoids)
	c.dims = make([][]int, len(t.dims))
	for i, row := range t.dims {
		c.dims[i] = slices.Clone(row)
	}
	return &c
}

// refineAll applies refineRows to every point of r.ds, in parallel over
// point ranges, and credits its work per range. It returns the
// per-point cluster index, OutlierID for points outside every sphere.
func (r *runner) refineAll(medoidPoints [][]float64, dims [][]int, delta []float64) []int {
	n, d := r.ds.Len(), r.ds.Dims()
	assign := make([]int, n)
	parallel.For(n, r.innerWorkers, func(lo, hi int) {
		refineRows(r.ds.Rows(lo, hi), d, medoidPoints, dims, delta, assign[lo:hi])
		r.creditRefined(hi-lo, dims)
	})
	return assign
}

// creditEvals adds a batch of distance evaluations, which read coords
// coordinates in all, to the run counters. Every evaluation runs over
// its whole dimension set, so each one is also a full evaluation.
func (r *runner) creditEvals(evals, coords int64) {
	r.counters.DistanceEvals.Add(evals)
	r.counters.DistanceEvalsFull.Add(evals)
	r.counters.CoordsVisited.Add(coords)
}

// dimsTotal is the summed dimension-set size Σᵢ |dims[i]| — the
// coordinate cost of one full k-way evaluation.
func dimsTotal(dims [][]int) int64 {
	var t int64
	for _, d := range dims {
		t += int64(len(d))
	}
	return t
}

// fullDistance is the full-dimensional segmental distance the greedy
// farthest-first traversal folds with, over the points selected by at.
// It ignores the traversal's cutoff, so every evaluation runs in full.
func fullDistance(at func(i int) []float64) greedy.BoundedDistanceTo {
	return func(i, j int, _ float64) (float64, int, bool) {
		return dist.SegmentalAllBounded(at(i), at(j), math.Inf(1))
	}
}

// tallySizes recounts cluster sizes from an assignment vector.
func tallySizes(assign, sizes []int) {
	for i := range sizes {
		sizes[i] = 0
	}
	for _, a := range assign {
		sizes[a]++
	}
}

// objectiveScratch is the buffer set of evaluateClustersInto, which the
// incremental engine reuses across iterations.
type objectiveScratch struct {
	order     []int       // N point indices, grouped by cluster
	next      []int       // k counting-sort cursors into order
	centroids [][]float64 // k rows of d; only D_i's coordinates are set
	devs      []float64   // k per-cluster deviation sums
}

func newObjectiveScratch(n, k, d int) objectiveScratch {
	s := objectiveScratch{
		order:     make([]int, n),
		next:      make([]int, k),
		centroids: make([][]float64, k),
		devs:      make([]float64, k),
	}
	cf := make([]float64, k*d)
	for i := range s.centroids {
		s.centroids[i] = cf[i*d : (i+1)*d]
	}
	return s
}

// evaluateClustersInto computes the paper's objective (Figure 6) into
// the reusable scratch s: the mean, over all points, of the average
// distance along each cluster dimension between the point and its
// cluster centroid. The deviations read centroid i only on dims[i], so
// only those coordinates are summed and scaled: the pass costs O(N·l)
// rather than O(N·d), and centroid coordinates outside a cluster's
// dimensions are left unset.
//
// A counting sort first lists the points cluster by cluster, each
// cluster's in ascending order. Every sum of the pass belongs to one
// cluster — its centroid coordinates, its deviation devs[i] — and
// receives only that cluster's points, so visiting the clusters one at
// a time, their points in ascending order, adds the same terms in the
// same order as one sweep in point order does. The sums can then stay
// in registers: centroid coordinates four at a time over the members,
// and the deviation in the batch kernel, each member's term summed over
// dims[i] in order and added to devs[i] in member order.
//
// The pass stays serial: floating-point accumulation order must not
// depend on the worker count, or the hill climb's accept/reject
// decisions (and hence the whole result) could differ between runs
// configured with different Workers values. The locality and
// assignment passes, whose outputs are integers, carry the parallelism
// instead.
func (r *runner) evaluateClustersInto(assign []int, sizes []int, dims [][]int, s *objectiveScratch) float64 {
	at := 0
	for i, size := range sizes {
		s.next[i] = at
		at += size
	}
	for p, a := range assign {
		s.order[s.next[a]] = p
		s.next[a]++
	}
	var total float64
	at = 0
	for i, size := range sizes {
		members := s.order[at : at+size]
		at += size
		c, di := s.centroids[i], dims[i]
		if size == 0 {
			for _, j := range di {
				c[j] = 0
			}
			s.devs[i] = 0
		} else {
			r.clusterCentroid(members, di, c)
			s.devs[i] = r.addDeviations(0, members, di, c)
		}
		total += s.devs[i]
	}
	return total / float64(len(assign))
}

// clusterCentroid sets c[j], for every j in dims, to the mean of the
// members' coordinate j: the sum over the members in order, times
// 1/len(members). It sums four coordinates per pass over the members,
// then two, then one.
func (r *runner) clusterCentroid(members, dims []int, c []float64) {
	inv := 1 / float64(len(members))
	for ; len(dims) >= 4; dims = dims[4:] {
		j0, j1, j2, j3 := dims[0], dims[1], dims[2], dims[3]
		var s0, s1, s2, s3 float64
		for _, p := range members {
			pt := r.ds.Point(p)
			s0 += pt[j0]
			s1 += pt[j1]
			s2 += pt[j2]
			s3 += pt[j3]
		}
		c[j0], c[j1], c[j2], c[j3] = s0*inv, s1*inv, s2*inv, s3*inv
	}
	if len(dims) >= 2 {
		j0, j1 := dims[0], dims[1]
		var s0, s1 float64
		for _, p := range members {
			pt := r.ds.Point(p)
			s0 += pt[j0]
			s1 += pt[j1]
		}
		c[j0], c[j1] = s0*inv, s1*inv
		dims = dims[2:]
	}
	if len(dims) == 1 {
		j0 := dims[0]
		var s0 float64
		for _, p := range members {
			s0 += r.ds.Point(p)[j0]
		}
		c[j0] = s0 * inv
	}
}

// addDeviations adds (Σ_{j ∈ dims} |p_j − c_j|) / |dims| to dev for each
// member p in order, the inner sum over dims in order, and returns the
// total: each member's term is dist.Segmental(p, c, dims), computed by
// dist.SegmentalRows a chunk of members at a time into a stack buffer.
func (r *runner) addDeviations(dev float64, members, dims []int, c []float64) float64 {
	var seg [assignTile]float64
	data, d := r.ds.Rows(0, r.ds.Len()), r.ds.Dims()
	for len(members) > 0 {
		chunk := members[:min(len(members), len(seg))]
		members = members[len(chunk):]
		dist.SegmentalRows(seg[:len(chunk)], data, d, chunk, dims, c)
		for _, v := range seg[:len(chunk)] {
			dev += v
		}
	}
	return dev
}

// findBadMedoids returns the positions of bad medoids in a trial: the
// medoid of the smallest cluster, plus any medoid whose cluster holds
// fewer than (N/k)·minDeviation points (paper §2.2).
func (r *runner) findBadMedoids(t *trialState) []int {
	k := len(t.sizes)
	smallest := 0
	for i := 1; i < k; i++ {
		if t.sizes[i] < t.sizes[smallest] {
			smallest = i
		}
	}
	threshold := float64(r.ds.Len()) / float64(k) * r.cfg.MinDeviation
	bad := []int{smallest}
	for i := 0; i < k; i++ {
		if i != smallest && float64(t.sizes[i]) < threshold {
			bad = append(bad, i)
		}
	}
	sort.Ints(bad)
	return bad
}

// replaceBad builds the next trial's medoid set by substituting random
// unused candidates for the bad medoids of the best set. It reports
// false when no unused candidates remain. rng is the calling restart's
// private generator.
func (r *runner) replaceBad(best *trialState, candidates []int, rng *randx.Rand) ([]int, bool) {
	inUse := make(map[int]bool, len(best.medoids))
	for _, m := range best.medoids {
		inUse[m] = true
	}
	var free []int
	for _, c := range candidates {
		if !inUse[c] {
			free = append(free, c)
		}
	}
	if len(free) == 0 {
		return nil, false
	}
	next := append([]int(nil), best.medoids...)
	rng.Shuffle(len(free), func(a, b int) { free[a], free[b] = free[b], free[a] })
	for i, pos := range best.badMedoids {
		if i >= len(free) {
			break
		}
		next[pos] = free[i]
	}
	return next, true
}

// refine performs the refinement phase (§2.3): recompute the dimension
// sets from the best trial's clusters, then reassign every point and
// flag outliers outside every medoid's sphere of influence in one pass.
func (r *runner) refine(best *trialState) *Result {
	k := len(best.medoids)

	// Group member indices by cluster from the best iterative assignment.
	clusters := make([][]int, k)
	for p, a := range best.assign {
		clusters[a] = append(clusters[a], p)
	}
	dims := r.findDimensions(best.medoids, clusters)

	medoidPoints := make([][]float64, k)
	for i, m := range best.medoids {
		medoidPoints[i] = r.ds.Point(m)
	}
	assign := r.refineAll(medoidPoints, dims, r.sphereRadii(medoidPoints, dims))

	res := r.packageResult(best.medoids, dims, assign)
	res.Objective = r.finalObjective(res)
	return res
}

// sphereRadii returns every medoid's sphere-of-influence radius Δ_i:
// the smallest segmental distance over D_i from medoid i to any other
// medoid (paper §2.3).
func (r *runner) sphereRadii(medoidPoints [][]float64, dims [][]int) []float64 {
	k := len(medoidPoints)
	delta := make([]float64, k)
	for i := range medoidPoints {
		delta[i] = math.Inf(1)
		for j := range medoidPoints {
			if i == j {
				continue
			}
			if d := dist.Segmental(medoidPoints[i], medoidPoints[j], dims[i]); d < delta[i] {
				delta[i] = d
			}
		}
	}
	r.creditEvals(int64(k)*int64(k-1), int64(k-1)*dimsTotal(dims))
	return delta
}

// refineRows is the refinement rule shared by Run and RunStream, applied
// to rows, a row-major range of d-dimensional points: out[i] receives
// the cluster of row i. Each (point, medoid) pair costs one segmental
// distance seg over D_m, which serves both tests. The point goes to the
// medoid of least seg, taking the strict < from (0, +Inf), so ties keep
// the lower medoid, as in the incremental engine's assignment pass. It
// is an outlier (OutlierID) when seg exceeds Δ_m = delta[m] for every
// medoid m, that is, when it lies outside every sphere of influence.
// All-+Inf radii flag no point whose distances are not NaN, and a fit
// never has a NaN distance, so they make the pass a plain
// nearest-medoid assignment.
//
// The rows go a tile of assignTile at a time. dist.SegmentalRows fills
// the tile's seg column of one medoid after another, and each column
// is folded into every point's running minimum and sphere test at once,
// so each point still meets the medoids in order. The columns and the
// running state live on the stack: the pass allocates nothing.
//
// The fold compares bits, as the assignment pass's argmin does: a
// segmental distance between finite coordinates is +0, positive or
// +Inf, and read as unsigned integers the bits of those order as their
// values do, so b < best is v < best and b <= bits(Δ_m) is v <= Δ_m for
// any radius that is +0, positive or +Inf. The integer compares
// compile to conditional moves where the float compares' branches
// mispredict.
func refineRows(rows []float64, d int, medoids [][]float64, dims [][]int, delta []float64, out []int) {
	var seg [assignTile]float64
	var best [assignTile]uint64
	var inside [assignTile]bool
	for t0 := 0; t0 < len(out); t0 += assignTile {
		t1 := min(t0+assignTile, len(out))
		o, col := out[t0:t1], seg[:t1-t0]
		for q := range o {
			o[q], best[q], inside[q] = 0, math.Float64bits(math.Inf(1)), false
		}
		for m, mp := range medoids {
			dist.SegmentalRows(col, rows[t0*d:t1*d], d, nil, dims[m], mp)
			radius := math.Float64bits(delta[m])
			for q, v := range col {
				b := math.Float64bits(v)
				in, bq, oq := inside[q], best[q], o[q]
				if b <= radius {
					in = true
				}
				if b < bq {
					bq, oq = b, m
				}
				inside[q], best[q], o[q] = in, bq, oq
			}
		}
		for q := range o {
			if !inside[q] {
				o[q] = OutlierID
			}
		}
	}
}

// creditRefined credits refineRows's work over the given number of
// points: one evaluation per (point, medoid) pair, each over that
// medoid's dimensions.
func (r *runner) creditRefined(points int, dims [][]int) {
	r.creditEvals(int64(points)*int64(len(dims)), int64(points)*dimsTotal(dims))
	r.counters.PointsScanned.Add(int64(points))
}

// packageResult assembles a Result from a medoid set, per-medoid
// dimension sets and an assignment vector (which may contain OutlierID
// entries).
func (r *runner) packageResult(medoids []int, dims [][]int, assign []int) *Result {
	k := len(medoids)
	res := &Result{
		Clusters:    make([]Cluster, k),
		Assignments: assign,
	}
	sizes := make([]int, k)
	for _, a := range assign {
		if a != OutlierID {
			sizes[a]++
		}
	}
	members := clusterMembers(assign, sizes)
	for i := 0; i < k; i++ {
		cl := Cluster{
			Medoid:     medoids[i],
			Dimensions: dims[i],
			Members:    members[i],
		}
		if len(members[i]) > 0 {
			cl.Centroid = r.ds.Centroid(members[i])
		} else {
			cl.Centroid = append([]float64(nil), r.ds.Point(medoids[i])...)
		}
		res.Clusters[i] = cl
	}
	return res
}

// clusterMembers lists each cluster's points in ascending index order,
// skipping outliers, by counting sort: sizes[i] must count the points
// assign gives cluster i, so each list is allocated once at its exact
// length. An empty cluster keeps a nil list.
func clusterMembers(assign, sizes []int) [][]int {
	members := newMembers(sizes)
	for p, a := range assign {
		if a != OutlierID {
			members[a] = append(members[a], p)
		}
	}
	return members
}

// newMembers allocates each cluster's member list empty, at capacity
// sizes[i]; an empty cluster keeps a nil list.
func newMembers(sizes []int) [][]int {
	members := make([][]int, len(sizes))
	for i, size := range sizes {
		if size > 0 {
			members[i] = make([]int, 0, size)
		}
	}
	return members
}

// finalObjective recomputes the quality measure over the refined
// partition, ignoring outliers.
func (r *runner) finalObjective(res *Result) float64 {
	var total float64
	points := 0
	for _, cl := range res.Clusters {
		if len(cl.Members) == 0 {
			continue
		}
		total = r.addDeviations(total, cl.Members, cl.Dimensions, cl.Centroid)
		points += len(cl.Members)
	}
	if points == 0 {
		return 0
	}
	return total / float64(points)
}
