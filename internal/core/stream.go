package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/greedy"
	"proclus/internal/obs"
	"proclus/internal/obs/metrics"
	"proclus/internal/parallel"
	"proclus/internal/randx"
	"proclus/internal/sample"
)

// RunStream executes PROCLUS against a PointSource in bounded memory:
// only the A·K-point initialization sample plus the source's block
// buffers are ever resident, never the full point matrix. This is the
// paper's own execution model (§3: every full-data stage is a single
// pass over disk-resident data, while the hill climb works on the
// in-memory sample):
//
//  1. One block pass collects the random sample; greedy farthest-first
//     thins it to the candidate medoids.
//  2. The hill-climb restarts run entirely on the resident sample —
//     localities, dimension selection, assignment and objective are
//     computed over sample points only.
//  3. Refinement recomputes dimensions from the best sample clustering,
//     then one block pass assigns every point (and flags outliers)
//     while accumulating cluster centroids, and one more scores the
//     final partition.
//
// The Result is a deterministic function of the point data and cfg
// alone: any two sources presenting the same points — a MemorySource, a
// FileSource over the written file, any block size, any Workers value —
// yield bit-identical Results. It deliberately differs from Run, whose
// hill climb scores trials against the full dataset (a luxury of having
// the matrix resident); with InitRandom, candidates are likewise drawn
// from the sample rather than the full dataset. Cluster medoid indices
// refer to the full dataset, as do Assignments and Members.
//
// The context cancels between hill-climb trials and between blocks of
// every pass. Stats gains stream counters (blocks, bytes) and the
// registry a proclus_stream_resident_points_peak gauge recording the
// O(sample + block) residency bound.
func RunStream(ctx context.Context, src PointSource, cfg Config) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("proclus: nil point source")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validateShape(src.Len(), src.Dims()); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rm := newRunnerMetrics(reg)
	rm.enableStream()
	s := &streamRunner{
		r: &runner{ctx: ctx, cfg: cfg, rng: randx.New(cfg.Seed),
			obs: cfg.Observer, metrics: rm, series: newRunnerSeries(cfg.Series)},
		src: src,
	}
	if bp, ok := src.(interface{ BlockPoints() int }); ok {
		s.blockPoints = bp.BlockPoints()
	}
	return s.run()
}

// streamRunner drives one out-of-core execution. The embedded runner
// owns the sample-resident machinery (its ds field is set to the sample
// once collected, so the hill climb, dimension selection and evaluators
// operate on it unchanged); streamRunner adds the block passes.
type streamRunner struct {
	r           *runner
	src         PointSource
	blockPoints int // requested block granularity, echoed in reports
	sampleIdx   []int
	maxBlockLen int
}

// pass sweeps the source once under a pass name, crediting the stream
// counters and tracking the largest block for the residency gauge.
// With an observer or series store attached, each block is also timed
// and reported (EvBlock events, per-block latency/throughput series);
// without either, the timing is skipped entirely.
func (s *streamRunner) pass(name string, fn func(b *dataset.Block) error) error {
	instrumented := s.r.obs != nil || s.r.series != nil
	bs := s.r.series.blocks(name)
	block := 0
	return s.src.Blocks(s.r.ctx, func(b *dataset.Block) error {
		s.r.counters.StreamBlocks.Add(1)
		s.r.counters.StreamBytes.Add(b.Bytes())
		if l := b.Len(); l > s.maxBlockLen {
			s.maxBlockLen = l
		}
		if !instrumented {
			return fn(b)
		}
		block++
		start := time.Now()
		err := fn(b)
		secs := time.Since(start).Seconds()
		bs.record(block, b.Len(), secs)
		s.r.emit(obs.Event{Type: obs.EvBlock, Phase: name,
			Block: block, Points: b.Len(), Seconds: secs})
		return err
	})
}

func (s *streamRunner) run() (*Result, error) {
	r := s.r
	n, d := s.src.Len(), s.src.Dims()
	r.stats.DatasetPoints = n
	r.stats.DatasetDims = d
	runStart := time.Now()
	r.emit(obs.Event{Type: obs.EvRunStart, Points: n, Dims: d})
	r.metrics.observeRunStart(n, d)

	workers := parallel.Workers(r.cfg.Workers)

	r.emit(obs.Event{Type: obs.EvPhaseStart, Phase: "initialize"})
	start := time.Now()
	r.innerWorkers = workers
	candidates, err := s.initialize()
	if err != nil {
		return nil, err
	}
	r.stats.InitDuration = time.Since(start)
	r.emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "initialize",
		Candidates: len(candidates), Seconds: r.stats.InitDuration.Seconds()})
	r.metrics.observePhase("initialize", r.stats.InitDuration.Seconds())
	r.metrics.fold(&r.counters)

	best, totalIterations, err := r.iteratePhase(candidates, workers)
	if err != nil {
		return nil, err
	}

	r.emit(obs.Event{Type: obs.EvPhaseStart, Phase: "refine"})
	start = time.Now()
	r.innerWorkers = workers
	res, err := s.refine(best)
	if err != nil {
		return nil, err
	}
	r.stats.RefineDuration = time.Since(start)
	r.emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "refine", Seconds: r.stats.RefineDuration.Seconds()})
	r.metrics.observePhase("refine", r.stats.RefineDuration.Seconds())

	res.Iterations = totalIterations
	res.Seed = r.cfg.Seed
	res.Config = r.cfg.reportConfig()
	res.Config.Stream = true
	res.Config.BlockPoints = s.blockPoints
	// Peak resident point storage: the sample plus the two block buffers
	// of the double-buffered reader — the promised O(sample + block).
	r.metrics.observeStreamResidentPeak(r.ds.Len() + 2*s.maxBlockLen)
	r.stats.Counters = r.counters.Snapshot()
	r.metrics.observeObjective(res.Objective)
	r.metrics.fold(&r.counters)
	r.stats.Metrics = r.metrics.snapshot()
	r.stats.Series = r.cfg.Series.Snapshot()
	res.Stats = r.stats
	r.emit(obs.Event{Type: obs.EvRunEnd, Objective: res.Objective,
		Clusters: len(res.Clusters), Outliers: res.NumOutliers(),
		Iteration: totalIterations, Seconds: time.Since(runStart).Seconds()})
	return res, nil
}

// initialize draws the A·K sample indices, collects their coordinates
// in one block pass, and selects the candidate medoids within the
// resident sample. It returns sample-local candidate indices and leaves
// r.ds set to the sample dataset.
func (s *streamRunner) initialize() ([]int, error) {
	r := s.r
	n, d := s.src.Len(), s.src.Dims()
	sampleSize := r.cfg.SampleFactor * r.cfg.K
	if sampleSize > n {
		sampleSize = n
	}
	sampleIdx, err := sample.WithoutReplacement(r.rng, n, sampleSize)
	if err != nil {
		return nil, fmt.Errorf("proclus: initialization sample: %w", err)
	}

	// Collect the sample coordinates in one pass. Blocks arrive in
	// ascending index order, so a sorted view of the sample indices is
	// consumed with a single monotonic cursor — no per-point map lookup.
	type pick struct{ idx, slot int }
	sorted := make([]pick, len(sampleIdx))
	for slot, idx := range sampleIdx {
		sorted[slot] = pick{idx: idx, slot: slot}
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].idx < sorted[b].idx })
	flat := make([]float64, len(sampleIdx)*d)
	cursor := 0
	err = s.pass("sample", func(b *dataset.Block) error {
		end := b.Start() + b.Len()
		for cursor < len(sorted) && sorted[cursor].idx < end {
			p := sorted[cursor]
			copy(flat[p.slot*d:(p.slot+1)*d], b.Point(p.idx-b.Start()))
			cursor++
		}
		r.counters.PointsScanned.Add(int64(b.Len()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cursor != len(sorted) {
		return nil, fmt.Errorf("proclus: source delivered %d of %d sampled points", cursor, len(sorted))
	}
	sampleDS, err := dataset.FromFlat(d, flat)
	if err != nil {
		return nil, err
	}
	// The streamed path validates what it holds resident; the full
	// dataset is the source's responsibility.
	if err := sampleDS.Validate(); err != nil {
		return nil, err
	}
	r.ds = sampleDS
	s.sampleIdx = sampleIdx

	m := sampleDS.Len()
	medoidCount := r.cfg.MedoidFactor * r.cfg.K
	if medoidCount > m {
		medoidCount = m
	}
	if r.cfg.InitMethod == InitRandom {
		cands, err := sample.WithoutReplacement(r.rng, m, medoidCount)
		if err != nil {
			return nil, fmt.Errorf("proclus: random candidate selection: %w", err)
		}
		return cands, nil
	}
	picks, err := greedy.FarthestFirstBounded(r.rng, m, medoidCount, r.innerWorkers,
		fullDistance(sampleDS.Point), nil, &r.counters)
	if err != nil {
		return nil, fmt.Errorf("proclus: greedy medoid selection: %w", err)
	}
	return picks, nil
}

// refine is the streamed refinement phase (§2.3 over disk-resident
// data): dimension sets from the best sample clustering, then one block
// pass assigning every point and flagging outliers while the cluster
// centroids accumulate, and one more pass scoring the final partition.
//
// Worker- and block-size-invariance: within a block, the assignment and
// outlier decisions are data-parallel integer writes to disjoint
// assign slots; every floating-point accumulation (centroid sums,
// deviations) runs serially in global point order, because blocks
// arrive in order and the serial loops walk each block in order.
func (s *streamRunner) refine(best *trialState) (*Result, error) {
	r := s.r
	k := len(best.medoids)

	var dims [][]int
	if r.cfg.SkipRefinement {
		// Ablation parity with Run: keep the hill climb's dimension sets
		// and skip outlier detection; the full-data assignment pass still
		// runs, since the hill climb only assigned the sample.
		dims = best.dims
	} else {
		clusters := make([][]int, k)
		for p, a := range best.assign {
			clusters[a] = append(clusters[a], p)
		}
		dims = r.findDimensions(best.medoids, clusters)
	}

	medoidPoints := make([][]float64, k)
	for i, m := range best.medoids {
		medoidPoints[i] = r.ds.Point(m)
	}
	metric := r.pointMetric()

	// Sphere of influence Δ_i over the medoids' own dimension sets,
	// computed from the resident sample coordinates.
	var delta []float64
	if !r.cfg.SkipRefinement {
		delta = r.sphereRadii(medoidPoints, dims)
	}

	n, d := s.src.Len(), s.src.Dims()
	assign := make([]int, n)
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, d)
	}
	sizes := make([]int, k)
	fullCoords := dimsTotal(dims)

	// Pass A: per-point nearest medoid and outlier flag (parallel within
	// the block), then centroid accumulation (serial, in point order).
	// The per-point decisions depend on coordinate values only, never on
	// block or chunk boundaries, so assignments stay block-size and
	// worker-count invariant.
	err := s.pass("assign", func(b *dataset.Block) error {
		bn := b.Len()
		parallel.For(bn, r.innerWorkers, func(lo, hi int) {
			// The outlier test's early exit makes the distance count
			// data-dependent; accumulate locally and add once per chunk, as
			// in the in-memory refinement pass.
			evals := int64(hi-lo) * int64(k)
			coords := int64(hi-lo) * fullCoords
			for i := lo; i < hi; i++ {
				pt := b.Point(i)
				a, bestDist := 0, math.Inf(1)
				for m := range medoidPoints {
					if dd := metric(pt, medoidPoints[m], dims[m]); dd < bestDist {
						a, bestDist = m, dd
					}
				}
				if delta != nil {
					outlier, e, c := outsideSpheres(pt, medoidPoints, dims, delta)
					evals += e
					coords += c
					if outlier {
						a = OutlierID
					}
				}
				assign[b.Index(i)] = a
			}
			r.creditEvals(evals, coords)
			r.counters.PointsScanned.Add(int64(hi - lo))
		})
		for i := 0; i < bn; i++ {
			a := assign[b.Index(i)]
			if a == OutlierID {
				continue
			}
			pt := b.Point(i)
			cs := sums[a]
			for j, v := range pt {
				cs[j] += v
			}
			sizes[a]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	centroids := make([][]float64, k)
	for i := range centroids {
		if sizes[i] > 0 {
			c := sums[i]
			inv := 1 / float64(sizes[i])
			for j := range c {
				c[j] *= inv
			}
			centroids[i] = c
		} else {
			centroids[i] = append([]float64(nil), medoidPoints[i]...)
		}
	}

	var objective float64
	if r.cfg.SkipRefinement {
		objective = best.objective
	} else {
		// Pass B: the final quality measure over the refined partition,
		// accumulated per cluster in global point order.
		devs := make([]float64, k)
		err = s.pass("score", func(b *dataset.Block) error {
			for i := 0; i < b.Len(); i++ {
				a := assign[b.Index(i)]
				if a == OutlierID {
					continue
				}
				pt := b.Point(i)
				var sum float64
				for _, j := range dims[a] {
					sum += math.Abs(pt[j] - centroids[a][j])
				}
				devs[a] += sum / float64(len(dims[a]))
			}
			r.counters.PointsScanned.Add(int64(b.Len()))
			return nil
		})
		if err != nil {
			return nil, err
		}
		var total float64
		points := 0
		for i := range devs {
			total += devs[i]
			points += sizes[i]
		}
		if points > 0 {
			objective = total / float64(points)
		}
	}

	members := make([][]int, k)
	for p, a := range assign {
		if a != OutlierID {
			members[a] = append(members[a], p)
		}
	}
	res := &Result{
		Clusters:    make([]Cluster, k),
		Assignments: assign,
		Objective:   objective,
	}
	for i := 0; i < k; i++ {
		res.Clusters[i] = Cluster{
			Medoid:     s.sampleIdx[best.medoids[i]],
			Dimensions: dims[i],
			Members:    members[i],
			Centroid:   centroids[i],
		}
	}
	return res, nil
}
