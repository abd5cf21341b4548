package core

import (
	"context"
	"fmt"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/greedy"
	"proclus/internal/obs"
	"proclus/internal/parallel"
	"proclus/internal/randx"
	"proclus/internal/sample"
)

// RunStream executes PROCLUS against a PointSource in bounded memory:
// only the A·K-point initialization sample plus the source's block
// buffers (two per worker) are ever resident, never the full point
// matrix. This is the paper's own execution model (§3: every full-data
// stage is a single pass over disk-resident data, while the hill climb
// works on the in-memory sample):
//
//  1. The random sample is read by position (PointSource.ReadPoints),
//     not in a pass; greedy farthest-first thins it to the candidate
//     medoids.
//  2. The hill-climb restarts run entirely on the resident sample —
//     localities, dimension selection, assignment and objective are
//     computed over sample points only.
//  3. Refinement recomputes dimensions from the best sample clustering.
//     Then two block passes sweep the source, each on all Workers: the
//     first assigns every point and flags outliers with the same rule
//     as Run's refinement while accumulating cluster centroids, the
//     second scores the final partition. In both, the workers do the
//     per-point work of whole blocks, and the floating-point sums are
//     folded one block at a time in point order.
//
// The Result is a deterministic function of the point data and cfg
// alone: any two sources presenting the same points — a MemorySource, a
// FileSource over the written file, any block size, any Workers value —
// yield bit-identical Results. It deliberately differs from Run, whose
// hill climb scores trials against the full dataset (a luxury of having
// the matrix resident). Cluster medoid indices refer to the full
// dataset, as do Assignments and Members.
//
// The context cancels before the sample read, between hill-climb
// trials, and between the blocks of both passes. Stats gains stream
// counters (blocks, bytes), in which the sample read counts as one
// block.
func RunStream(ctx context.Context, src PointSource, cfg Config) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("proclus: nil point source")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validateShape(src.Len(), src.Dims()); err != nil {
		return nil, err
	}
	s := &streamRunner{
		r: &runner{ctx: ctx, cfg: cfg, rng: randx.New(cfg.Seed),
			obs: cfg.Observer, series: newRunnerSeries(cfg.Series)},
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
}

// pass sweeps the source once under a pass name on the run's workers:
// work runs on each block on one of them, and fold then runs on each
// block on this goroutine, one block at a time in point order. The
// stream counters are credited from fold. With an observer or series
// store attached, each block is also reported from its fold, so in
// block order (EvBlock events, per-block latency/throughput series),
// timed as its work plus its fold; without either, the timing is
// skipped entirely.
func (s *streamRunner) pass(name string, work, fold func(b *dataset.Block) error) error {
	workers := s.r.innerWorkers
	instrumented := s.r.obs != nil || s.r.series != nil
	bs := s.r.series.blocks(name)
	block := 0
	var workSecs []float64 // by slot
	if instrumented {
		workSecs = make([]float64, 2*workers)
		untimed := work
		work = func(b *dataset.Block) error {
			start := time.Now()
			err := untimed(b)
			workSecs[b.Slot()] = time.Since(start).Seconds()
			return err
		}
	}
	return s.src.Pass(s.r.ctx, workers, work, func(b *dataset.Block) error {
		s.r.counters.StreamBlocks.Add(1)
		s.r.counters.StreamBytes.Add(b.Bytes())
		if !instrumented {
			return fold(b)
		}
		block++
		start := time.Now()
		err := fold(b)
		secs := workSecs[b.Slot()] + time.Since(start).Seconds()
		bs.record(block, b.Len(), secs)
		s.r.emit(obs.Event{Type: obs.EvBlock, Phase: name,
			Block: block, Points: b.Len(), Seconds: secs})
		return err
	})
}

// readSample reads the sample points at idx by position into dst. The
// read is reported as the one block of the "sample" pass: one EvBlock
// event and one point in the block series, timed around the read, and
// one block and its bytes in the stream counters. It scans no points.
func (s *streamRunner) readSample(idx []int, dst []float64) error {
	if err := s.r.cancelled(); err != nil {
		return err
	}
	start := time.Now()
	if err := s.src.ReadPoints(idx, dst); err != nil {
		return fmt.Errorf("proclus: reading the initialization sample: %w", err)
	}
	s.r.counters.StreamBlocks.Add(1)
	s.r.counters.StreamBytes.Add(int64(len(dst)) * 8)
	s.r.singleBlock("sample", len(idx), start)
	return nil
}

func (s *streamRunner) run() (*Result, error) {
	r := s.r
	n, d := s.src.Len(), s.src.Dims()
	r.stats.DatasetPoints = n
	r.stats.DatasetDims = d
	runStart := time.Now()
	r.emit(obs.Event{Type: obs.EvRunStart, Points: n, Dims: d})

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

	res.Iterations = totalIterations
	res.Seed = r.cfg.Seed
	res.Config = r.cfg.reportConfig()
	res.Config.Stream = true
	res.Config.BlockPoints = s.blockPoints
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

// initialize draws the A·K sample indices, reads their coordinates by
// position, and selects the candidate medoids within the resident
// sample. It returns sample-local candidate indices and leaves r.ds set
// to the sample dataset.
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
	// Row i of the sample is point sampleIdx[i], in the order drawn.
	flat := make([]float64, len(sampleIdx)*d)
	if err := s.readSample(sampleIdx, flat); err != nil {
		return nil, err
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
// Worker- and block-size-invariance: the assignment and outlier
// decisions, and each point's deviation term, depend on that point's
// coordinates alone; the workers write them to disjoint slots. Every
// floating-point sum (each centroid coordinate, each cluster's
// deviations) runs in a pass's fold, which takes the blocks one at a
// time in point order and walks each block in order, so each sum gets
// the same terms in the same order for any source, block size and
// worker count.
func (s *streamRunner) refine(best *trialState) (*Result, error) {
	r := s.r
	k := len(best.medoids)

	clusters := make([][]int, k)
	for p, a := range best.assign {
		clusters[a] = append(clusters[a], p)
	}
	dims := r.findDimensions(best.medoids, clusters)

	medoidPoints := make([][]float64, k)
	for i, m := range best.medoids {
		medoidPoints[i] = r.ds.Point(m)
	}

	// Sphere of influence Δ_i over the medoids' own dimension sets,
	// computed from the resident sample coordinates.
	delta := r.sphereRadii(medoidPoints, dims)

	n, d := s.src.Len(), s.src.Dims()
	assign := make([]int, n)
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, d)
	}
	sizes := make([]int, k)

	// Pass A: each block's nearest medoids and outlier flags, on every
	// worker, then the centroid sums, folded in point order.
	err := s.pass("assign", func(b *dataset.Block) error {
		refineRows(b.Rows(0, b.Len()), d, medoidPoints, dims, delta, assign[b.Start():b.Start()+b.Len()])
		r.creditRefined(b.Len(), dims)
		return nil
	}, func(b *dataset.Block) error {
		for i, a := range assign[b.Start() : b.Start()+b.Len()] {
			if a == OutlierID {
				continue
			}
			cs := sums[a]
			for j, v := range b.Point(i) {
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

	// Pass B: the final quality measure over the refined partition. Each
	// point's deviation term is computed on every worker into its
	// block's slot of terms; the fold adds the terms to their cluster's
	// sum in point order and lists the members.
	devs := make([]float64, k)
	members := newMembers(sizes)
	terms := make([][]float64, 2*r.innerWorkers) // by block slot
	err = s.pass("score", func(b *dataset.Block) error {
		t := terms[b.Slot()]
		if len(t) < b.Len() {
			t = make([]float64, b.Len())
			terms[b.Slot()] = t
		}
		for i, a := range assign[b.Start() : b.Start()+b.Len()] {
			if a != OutlierID {
				t[i] = dist.Segmental(b.Point(i), centroids[a], dims[a])
			}
		}
		r.counters.PointsScanned.Add(int64(b.Len()))
		return nil
	}, func(b *dataset.Block) error {
		t := terms[b.Slot()]
		for i, a := range assign[b.Start() : b.Start()+b.Len()] {
			if a != OutlierID {
				devs[a] += t[i]
				members[a] = append(members[a], b.Start()+i)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var objective, total float64
	points := 0
	for i := range devs {
		total += devs[i]
		points += sizes[i]
	}
	if points > 0 {
		objective = total / float64(points)
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
