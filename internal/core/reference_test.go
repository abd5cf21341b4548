package core

// The reference PROCLUS. referenceRun computes the paper's method the
// plain way: it drives the production climb with an engine that
// recomputes every trial from scratch, with localities by a direct
// scan, and decides refinement point by point. It is the bit-identity
// reference for the incremental engine, and with an ablation it runs
// the departures from the paper that EXPERIMENTS.md's ablation table
// measures. Run and RunStream reach none of it.

import (
	"math"
	"sort"
	"sync"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/parallel"
	"proclus/internal/randx"
	"proclus/internal/sample"
)

// ablation selects departures from the paper's method, each the
// baseline of one of its design choices. The zero value is the paper's
// method.
type ablation struct {
	// randomInit draws the B·K candidates uniformly from the dataset
	// instead of thinning an A·K sample by greedy farthest-first
	// traversal (§2.1, Figure 3). Candidate sets then often miss small
	// clusters.
	randomInit bool
	// manhattan assigns points, in the hill climb and in refinement, by
	// the unnormalized Manhattan distance over each medoid's dimension
	// set instead of the Manhattan segmental distance (§1.2). It favours
	// medoids with fewer dimensions.
	manhattan bool
	// skipRefine returns the hill climb's best clustering as it stands:
	// dimension sets from localities, the trial's objective and no
	// outliers, without the refinement phase (§2.3).
	skipRefine bool
}

// referenceRun is Run on the naive engine, under the given ablation.
// It builds no candidate table. It splits the restart streams off the
// seed's stream as iteratePhase does, climbs them one after another
// with the production climb, and merges them in order with strict <,
// so equal objectives keep the lower restart. cfg.Workers bounds each
// trial's data-parallel passes, which cannot change the result. It
// credits PointsScanned as Run does, counts its own distance
// evaluations, and touches no cache counter. Restart durations stay
// zero.
func referenceRun(ds *dataset.Dataset, cfg Config, ab ablation) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(ds); err != nil {
		return nil, err
	}
	r := &runner{ds: ds, cfg: cfg, rng: randx.New(cfg.Seed), obs: cfg.Observer,
		series: newRunnerSeries(cfg.Series), innerWorkers: parallel.Workers(cfg.Workers)}
	r.stats.DatasetPoints, r.stats.DatasetDims = ds.Len(), ds.Dims()
	candidates, err := r.referenceCandidates(ab)
	if err != nil {
		return nil, err
	}
	rngs := make([]*randx.Rand, max(cfg.Restarts, 1))
	for i := range rngs {
		rngs[i] = r.rng.Split()
	}
	var best *trialState
	iterations := 0
	for i, rng := range rngs {
		trial, n, trace, err := r.climb(candidates, i+1, rng, naiveEval{r: r, manhattan: ab.manhattan})
		if err != nil {
			return nil, err
		}
		r.stats.ObjectiveTrace = append(r.stats.ObjectiveTrace, trace...)
		r.stats.Restarts = append(r.stats.Restarts, RestartStats{Iterations: n, BestObjective: trial.objective})
		iterations += n
		if best == nil || trial.objective < best.objective {
			best = trial
		}
	}
	var res *Result
	if ab.skipRefine {
		res = r.packageResult(best.medoids, best.dims, best.assign)
		res.Objective = best.objective
	} else {
		res = r.refineReference(best, ab.manhattan)
	}
	res.Iterations = iterations
	res.Seed = cfg.Seed
	res.Config = cfg.reportConfig()
	r.stats.Counters = r.counters.Snapshot()
	r.stats.Series = cfg.Series.Snapshot()
	res.Stats = r.stats
	return res, nil
}

// referenceCandidates selects the candidate medoids: the production
// initialize, or under randomInit min(B·K, N) points drawn uniformly
// from the seed's stream.
func (r *runner) referenceCandidates(ab ablation) ([]int, error) {
	if !ab.randomInit {
		return r.initialize()
	}
	n := r.ds.Len()
	return sample.WithoutReplacement(r.rng, n, min(r.cfg.MedoidFactor*r.cfg.K, n))
}

// refineReference is the refinement phase (§2.3) decided point by point
// by referenceRefine: dimension sets from the best trial's clusters,
// spheres of influence over them, then every point's nearest medoid, or
// OutlierID outside every sphere.
func (r *runner) refineReference(best *trialState, manhattan bool) *Result {
	clusters := make([][]int, len(best.medoids))
	for p, a := range best.assign {
		clusters[a] = append(clusters[a], p)
	}
	dims := r.findDimensions(best.medoids, clusters)
	medoidPoints := r.points(best.medoids)
	assign := r.referenceAssign(medoidPoints, dims, r.sphereRadii(medoidPoints, dims), manhattan)
	res := r.packageResult(best.medoids, dims, assign)
	res.Objective = r.finalObjective(res)
	return res
}

// referenceAssign decides every point of r.ds by referenceRefine and
// credits the pass as refineAll does.
func (r *runner) referenceAssign(medoidPoints [][]float64, dims [][]int, delta []float64, manhattan bool) []int {
	assign := make([]int, r.ds.Len())
	for p := range assign {
		assign[p] = referenceRefine(r.ds.Point(p), medoidPoints, dims, delta, manhattan)
	}
	r.creditRefined(len(assign), dims)
	return assign
}

// points returns the coordinates of the given dataset indices.
func (r *runner) points(idx []int) [][]float64 {
	pts := make([][]float64, len(idx))
	for i, m := range idx {
		pts[i] = r.ds.Point(m)
	}
	return pts
}

// naiveEval recomputes every trial from scratch, assigning by the
// unnormalized Manhattan distance when manhattan is set. Its trials are
// freshly allocated, so adopt is the identity and there is nothing to
// reset.
type naiveEval struct {
	r         *runner
	manhattan bool
}

func (e naiveEval) evaluate(medoids []int) *trialState {
	r := e.r
	dims := r.findDimensions(medoids, r.computeLocalities(medoids))
	var assign, sizes []int
	if e.manhattan {
		assign = r.referenceAssign(r.points(medoids), dims, nil, true)
		sizes = make([]int, len(medoids))
		tallySizes(assign, sizes)
	} else {
		assign, sizes = r.assignPoints(medoids, dims)
	}
	return &trialState{
		medoids:   append([]int(nil), medoids...),
		dims:      dims,
		assign:    assign,
		sizes:     sizes,
		objective: r.evaluateClusters(assign, sizes, dims),
	}
}

func (e naiveEval) adopt(t *trialState) *trialState { return t }
func (e naiveEval) reset()                          {}
func (e naiveEval) cacheHitRate() float64           { return 0 }

// evaluateMedoids runs one naive hill-climbing trial under the paper's
// metric: localities, dimensions, assignment and objective for the
// given medoid set.
func (r *runner) evaluateMedoids(medoids []int) *trialState {
	return naiveEval{r: r}.evaluate(medoids)
}

// computeLocalities returns, for each medoid, the indices of all points
// within δ_i of it, where δ_i is the full-space segmental distance to
// the nearest other medoid (paper §2.2, "Finding Dimensions"). The
// localities may overlap and need not cover the dataset; each contains
// at least its own medoid.
func (r *runner) computeLocalities(medoids []int) [][]int {
	k := len(medoids)
	fullDims := int64(r.ds.Dims())
	delta := make([]float64, k)
	// Each δ_i is an independent minimum over the other medoids, so the
	// rows parallelize with disjoint writes and worker-count-independent
	// results.
	parallel.For(k, r.innerWorkers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			delta[i] = math.Inf(1)
			for j := range medoids {
				if i == j {
					continue
				}
				if d := dist.SegmentalAll(r.ds.Point(medoids[i]), r.ds.Point(medoids[j])); d < delta[i] {
					delta[i] = d
				}
			}
		}
		evals := int64(hi-lo) * int64(k-1)
		r.creditEvals(evals, evals*fullDims)
	})
	// Sharded scan: each worker fills per-chunk lists, concatenated in
	// chunk order afterwards so the result is identical to a serial
	// scan. Strict inequality keeps the nearest other medoid (at
	// distance exactly δ_i) out of the locality; the medoid itself, at
	// distance 0, is always in unless δ_i = 0 (duplicate medoids), which
	// zRow tolerates as an empty group.
	medoidPoints := r.points(medoids)
	n := r.ds.Len()
	type chunk struct {
		lo    int
		lists [][]int
	}
	var mu sync.Mutex
	var chunks []chunk
	parallel.For(n, r.innerWorkers, func(lo, hi int) {
		lists := make([][]int, k)
		for p := lo; p < hi; p++ {
			pt := r.ds.Point(p)
			for i := range medoidPoints {
				if dist.SegmentalAll(pt, medoidPoints[i]) < delta[i] {
					lists[i] = append(lists[i], p)
				}
			}
		}
		// One batched add per chunk keeps the counters off the inner
		// loop; the totals are exact and independent of Workers.
		evals := int64(hi-lo) * int64(k)
		r.creditEvals(evals, evals*fullDims)
		r.counters.PointsScanned.Add(int64(hi - lo))
		mu.Lock()
		chunks = append(chunks, chunk{lo: lo, lists: lists})
		mu.Unlock()
	})
	sort.Slice(chunks, func(a, b int) bool { return chunks[a].lo < chunks[b].lo })
	localities := make([][]int, k)
	for _, c := range chunks {
		for i := range localities {
			localities[i] = append(localities[i], c.lists[i]...)
		}
	}
	return localities
}

// assignPoints assigns every point to the medoid of minimum Manhattan
// segmental distance relative to that medoid's dimension set (paper
// Figure 5): refineRows with no spheres of influence. Ties break toward
// the lower medoid index so the result is deterministic. It returns
// the per-point cluster index and the cluster sizes.
func (r *runner) assignPoints(medoids []int, dims [][]int) (assign []int, sizes []int) {
	assign = r.refineAll(r.points(medoids), dims, nil)
	sizes = make([]int, len(medoids))
	tallySizes(assign, sizes)
	return assign, sizes
}

// evaluateClusters computes the paper's objective (Figure 6): the mean,
// over all points, of the average distance along each cluster dimension
// between the point and its cluster centroid.
func (r *runner) evaluateClusters(assign []int, sizes []int, dims [][]int) float64 {
	s := newObjectiveScratch(len(assign), len(sizes), r.ds.Dims())
	return r.evaluateClustersInto(assign, sizes, dims, &s)
}
