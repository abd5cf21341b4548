// Package clique is a clean-room reimplementation of the CLIQUE subspace
// clustering algorithm (Agrawal, Gehrke, Gunopulos, Raghavan, SIGMOD
// 1998), which the PROCLUS paper uses as its comparison baseline.
//
// Each dimension is partitioned into Xi equal-width intervals. A unit in
// a q-dimensional subspace is the cross product of one interval per
// subspace dimension; a unit is dense when it holds more than Tau·N
// points. Dense units are discovered bottom-up: dense 1-dimensional
// units come from a histogram pass, and dense q-dimensional candidate
// units are generated apriori-style from the dense (q−1)-dimensional
// units, pruned by the monotonicity property (every projection of a
// dense unit is dense), then verified with a counting pass over the
// data. Within each subspace, clusters are the connected components of
// dense units sharing a common face.
//
// Unlike PROCLUS, CLIQUE reports overlapping regions rather than a
// partition: every dense projection of a higher-dimensional cluster is
// itself reported, which is exactly the behaviour §4.2 of the PROCLUS
// paper quantifies with its "average overlap" metric.
package clique

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/obs/series"
	"proclus/internal/parallel"
)

// Config holds the CLIQUE parameters.
type Config struct {
	// Xi is the number of intervals per dimension (the paper's ξ),
	// between 2 and 255. Default 10. A unit of a q-dimensional subspace
	// is keyed by a uint64 holding its q interval indices as base-Xi
	// digits, so the search reaches level q only while Xi^q ≤ 2^64: up
	// to level 19 at Xi = 10, level 8 at Xi = 255. A run whose lattice
	// would go higher fails with an error that names the level; set
	// MaxDims to stop below it.
	Xi int
	// Tau is the density threshold as a fraction of N (the paper's τ):
	// a unit is dense when it holds more than Tau·N points. Default
	// 0.005 (0.5%), the value the PROCLUS experiments use most often.
	Tau float64
	// MaxDims, when positive, stops the bottom-up search after subspaces
	// of this dimensionality. Zero means "until no dense units remain".
	MaxDims int
	// FixedDims, when positive, restricts reported clusters to subspaces
	// of exactly this dimensionality — the option the PROCLUS authors
	// used for Table 5 ("set it to find clusters only in 7 dimensions").
	// The search still runs bottom-up through lower dimensionalities.
	FixedDims int
	// MaxUnitsPerLevel aborts the run when one level's candidate set
	// exceeds this size, as a memory guard for the exponential lattice.
	// Default 5,000,000; negative disables the guard.
	MaxUnitsPerLevel int
	// ReportMaximal restricts reported clusters to maximal dense
	// subspaces: subspaces with no dense strict superset. Lower-level
	// projections of a higher-dimensional cluster are then suppressed.
	// Ignored when FixedDims is set.
	ReportMaximal bool
	// ReportHighest restricts reported clusters to subspaces of the
	// highest dimensionality the search reached. This is how the
	// PROCLUS authors read CLIQUE's output when computing coverage and
	// overlap ("CLIQUE reported output clusters in 8 dimensions"
	// describes runs by their top level); overlap ≈ 1 at τ = 0.5% and
	// coverage well below 100% require it. Ignored when FixedDims is
	// set; takes precedence over ReportMaximal.
	ReportHighest bool
	// MDLPruning enables CLIQUE's §3.2 subspace pruning: after each
	// level, subspaces are sorted by coverage (points in their dense
	// units) and the low-coverage tail is pruned at the cut minimizing
	// the two-part MDL code length. Pruned subspaces neither report
	// clusters nor extend to higher levels. The PROCLUS experiments ran
	// the original CLIQUE program, which has this pruning; overlap ≈ 1
	// and coverage well below 100% (paper §4.2) require it.
	MDLPruning bool
	// Workers bounds the goroutines used by the full-dataset passes: the
	// 1-dimensional histogram (sharded by points, merged with commuting
	// integer adds), the per-level candidate counting pass and the
	// cluster-size pass (both compute each block's interval cells
	// sharded by points, then count sharded by subspace, so each
	// subspace's counters belong to exactly one worker). Results are
	// identical for every worker count. Values below 1 select GOMAXPROCS.
	Workers int

	// Observer receives structured run events: run start/end, phase
	// transitions and per-level candidate/dense counts. Nil — the
	// default — disables event emission entirely; hot-path counters are
	// still collected at negligible cost so Stats.Counters is always
	// populated. The observer does not participate in the algorithm:
	// runs with and without one produce identical Results.
	Observer obs.Observer

	// Series, when non-nil, is the time-series store the run records
	// its per-level trajectories into (candidate and dense unit counts,
	// level latency), plus per-block latency and throughput on streamed
	// runs. Recording is strictly opt-in — there is no private fallback
	// — so uninstrumented runs pay nothing and Stats.Series stays
	// empty. Like the Observer, the store does not participate in the
	// algorithm.
	Series *series.Store
}

func (cfg Config) withDefaults() Config {
	if cfg.Xi == 0 {
		cfg.Xi = 10
	}
	if cfg.Tau == 0 {
		cfg.Tau = 0.005
	}
	if cfg.MaxUnitsPerLevel == 0 {
		cfg.MaxUnitsPerLevel = 5_000_000
	}
	return cfg
}

func (cfg Config) validate(dims int) error {
	switch {
	case cfg.Xi < 2:
		return fmt.Errorf("clique: Xi = %d must be at least 2", cfg.Xi)
	case cfg.Xi > 255:
		// Interval indices are stored one byte per cell.
		return fmt.Errorf("clique: Xi = %d exceeds the supported maximum 255", cfg.Xi)
	case cfg.Tau <= 0 || cfg.Tau >= 1:
		return fmt.Errorf("clique: Tau = %v outside (0, 1)", cfg.Tau)
	case cfg.MaxDims < 0:
		return fmt.Errorf("clique: negative MaxDims %d", cfg.MaxDims)
	case cfg.FixedDims < 0:
		return fmt.Errorf("clique: negative FixedDims %d", cfg.FixedDims)
	case cfg.FixedDims > dims:
		return fmt.Errorf("clique: FixedDims %d exceeds space dimensionality %d", cfg.FixedDims, dims)
	case cfg.MaxDims > 0 && cfg.FixedDims > cfg.MaxDims:
		return fmt.Errorf("clique: FixedDims %d exceeds MaxDims %d", cfg.FixedDims, cfg.MaxDims)
	}
	return nil
}

// Unit is one dense grid cell: interval Intervals[i] on dimension
// Dims[i] for each i, with Dims ascending.
type Unit struct {
	Dims      []int
	Intervals []int
	Count     int
}

// Cluster is a maximal set of connected dense units within one subspace.
type Cluster struct {
	// Dims is the subspace, ascending.
	Dims []int
	// Units holds the connected dense units forming the cluster.
	Units []Unit
	// Size is the number of data points covered by the cluster's units
	// (each point counted once per cluster).
	Size int
}

// Result is the output of a CLIQUE run.
type Result struct {
	// Clusters holds every reported cluster, ordered by subspace
	// dimensionality then lexicographic subspace.
	Clusters []Cluster
	// DenseBySubspaceDim[q] is the number of dense units found in
	// q-dimensional subspaces (index 0 unused).
	DenseBySubspaceDim []int
	// Levels is the highest subspace dimensionality reached.
	Levels int
	// Xi records the grid resolution the run used, so membership can be
	// recomputed later against the same grid.
	Xi int
	// GridMin and GridMax record the per-dimension bounds the run's grid
	// was built from, so individual points can be located in the same
	// grid later (see NewPointAssigner) without the original dataset —
	// the only way to assign points after a streamed run, where no
	// dataset is ever resident.
	GridMin, GridMax []float64
	// Config echoes the effective configuration (defaults applied) in
	// the JSON-safe form embedded in run reports.
	Config ConfigReport
	// Stats records phase timings and counters.
	Stats Stats
}

// grid maps points to interval indices.
type grid struct {
	min, width []float64
	xi         int
}

func newGrid(ds *dataset.Dataset, xi int) *grid {
	min, max := ds.Bounds()
	return newGridBounds(min, max, xi)
}

func newGridBounds(min, max []float64, xi int) *grid {
	width := make([]float64, len(min))
	for j := range width {
		w := (max[j] - min[j]) / float64(xi)
		if w <= 0 {
			w = 1 // constant dimension: everything in interval 0
		}
		width[j] = w
	}
	return &grid{min: min, width: width, xi: xi}
}

// interval returns the interval index of value v on dimension j,
// clamped so the domain maximum falls in the last interval.
func (g *grid) interval(j int, v float64) int {
	iv := int((v - g.min[j]) / g.width[j])
	if iv < 0 {
		iv = 0
	}
	if iv >= g.xi {
		iv = g.xi - 1
	}
	return iv
}

// key returns the key of the unit of subspace dims that holds p.
func (g *grid) key(dims []int, p []float64) uint64 {
	var k uint64
	for _, d := range dims {
		k = k*uint64(g.xi) + uint64(g.interval(d, p[d]))
	}
	return k
}

// cellKey returns the key of the unit of subspace dims that holds the
// point whose interval indices, one per dimension, are row.
func cellKey(dims []int, row []uint8, xi uint64) uint64 {
	var k uint64
	for _, d := range dims {
		k = k*xi + uint64(row[d])
	}
	return k
}

// Run executes CLIQUE on ds. It routes through the same block-pass
// engine as RunStream, over a single zero-copy block covering the whole
// dataset, so the in-memory pass structure (and performance) of the
// direct implementation is preserved and the two entry points cannot
// drift apart.
func Run(ds *dataset.Dataset, cfg Config) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return run(context.Background(), dataset.NewMemorySource(ds, ds.Len()), cfg, false)
}

// RunStream executes CLIQUE over an arbitrary point source in bounded
// memory: every full-data stage — grid bounds, the 1-d histogram, the
// per-level candidate counting and the cluster-size pass — is a block
// pass, so resident point storage is the source's block buffers
// regardless of n. All per-unit accumulation is integer counting
// sharded so each counter belongs to one worker, making the Result
// bit-identical to Run on the same points for every block size and
// worker count. Unlike Run, the point data is not pre-validated for
// NaN/Inf (the whole matrix is never resident); garbage values land in
// clamped boundary intervals instead of failing fast.
func RunStream(ctx context.Context, src PointSource, cfg Config) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("clique: nil point source")
	}
	return run(ctx, src, cfg, true)
}

func run(ctx context.Context, src PointSource, cfg Config, stream bool) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(src.Dims()); err != nil {
		return nil, err
	}
	if src.Len() == 0 {
		return nil, fmt.Errorf("clique: empty dataset")
	}
	minCount := int(cfg.Tau * float64(src.Len()))
	// "More than Tau·N": strictly greater.
	s := &searcher{ctx: ctx, src: src, n: src.Len(), d: src.Dims(), cfg: cfg,
		minCount: minCount, stream: stream, obs: cfg.Observer,
		series: newSearcherSeries(cfg.Series)}
	res, err := s.run()
	if err != nil {
		return nil, err
	}
	if stream {
		res.Config.Stream = true
		if bp, ok := src.(interface{ BlockPoints() int }); ok {
			res.Config.BlockPoints = bp.BlockPoints()
		}
	}
	return res, nil
}

type searcher struct {
	ctx context.Context
	src PointSource
	// n and d cache the source's shape.
	n, d int
	cfg  Config
	grid *grid
	// boundsMin and boundsMax keep the raw bounds the grid was built
	// from, echoed into the Result for later point assignment.
	boundsMin, boundsMax []float64
	minCount             int
	stats                Stats
	// stream marks an out-of-core run: block-delivery counters are
	// credited. In-memory runs keep their counters, reports and goldens
	// byte-identical to the pre-streaming engine.
	stream bool
	// obs receives structured events; nil disables emission.
	obs obs.Observer
	// counters accumulates hot-path work, batched per pass so it stays
	// cheap enough to keep always on.
	counters obs.Counters
	// series records per-level and per-block trajectories; nil — the
	// default, recording is opt-in via Config.Series — disables it.
	series *searcherSeries
	// cells holds the interval index of every point of the current block
	// on every dimension, row by row; the counting passes reuse it from
	// block to block.
	cells []uint8
}

// emit forwards an event to the attached observer. The nil check is the
// disabled fast path: no interface call happens without an observer.
func (s *searcher) emit(e obs.Event) {
	if s.obs != nil {
		e.Algorithm = "clique"
		s.obs.Observe(e)
	}
}

// subspaceKey encodes a dimension set as a map key.
func subspaceKey(dims []int) string {
	return string(appendSubspaceKey(nil, dims...))
}

// appendSubspaceKey appends the subspaceKey encoding of dims to b. A
// lookup through m[string(b)] does not allocate.
func appendSubspaceKey(b []byte, dims ...int) []byte {
	for _, d := range dims {
		b = append(b, byte(d>>8), byte(d))
	}
	return b
}

// Unit keys. A unit of a q-dimensional subspace is keyed by a uint64
// holding its q interval indices as base-Xi digits, most significant
// first. Within one subspace every key has q digits, so numeric order
// is the lexicographic order of the interval vectors.

// packKey returns the key of the unit with the given intervals.
func packKey(intervals []int, xi int) uint64 {
	var k uint64
	for _, iv := range intervals {
		k = k*uint64(xi) + uint64(iv)
	}
	return k
}

// unpackKey writes the len(intervals) interval indices held by key
// into intervals.
func unpackKey(intervals []int, key uint64, xi int) {
	for i := len(intervals) - 1; i >= 0; i-- {
		intervals[i] = int(key % uint64(xi))
		key /= uint64(xi)
	}
}

// digitWeights returns, for each digit position i of a q-digit key,
// xi^(q−1−i): the step that moves interval i by one.
func digitWeights(q, xi int) []uint64 {
	w := make([]uint64, q)
	for i, p := q-1, uint64(1); i >= 0; i-- {
		w[i] = p
		p *= uint64(xi)
	}
	return w
}

// dropDigit removes the digit of weight w from key, shifting the more
// significant digits down one place.
func dropDigit(key, w uint64, xi int) uint64 {
	return key/w/uint64(xi)*w + key%w
}

// keyDigits returns the most base-xi digits a uint64 key holds: the
// largest q with xi^q ≤ 2^64.
func keyDigits(xi int) int {
	q, p := 0, uint64(1)
	for {
		hi, lo := bits.Mul64(p, uint64(xi))
		if hi != 0 {
			if hi == 1 && lo == 0 { // xi^(q+1) == 2^64 exactly
				q++
			}
			return q
		}
		p = lo
		q++
	}
}

// level holds all dense units of one lattice level, grouped by subspace.
type level struct {
	q         int
	subspaces map[string]*subspaceUnits
}

type subspaceUnits struct {
	dims  []int
	units map[uint64]int // unit key -> count
}

// eachBlock sweeps the source once under a pass name, crediting stream
// telemetry on out-of-core runs and tracking the largest delivered
// block. On streamed runs with an observer or series store attached,
// each block is additionally timed and reported (EvBlock events,
// per-block latency/throughput series); in-memory runs skip all of it,
// keeping their event sequences and reports byte-identical to the
// pre-telemetry engine.
func (s *searcher) eachBlock(name string, fn func(b *dataset.Block) error) error {
	instrumented := s.stream && (s.obs != nil || s.series != nil)
	var bs blockSeries
	if instrumented {
		bs = s.series.blocks(name)
	}
	block := 0
	return s.src.Pass(s.ctx, 1, nil, func(b *dataset.Block) error {
		if s.stream {
			s.counters.StreamBlocks.Add(1)
			s.counters.StreamBytes.Add(b.Bytes())
		}
		if !instrumented {
			return fn(b)
		}
		block++
		start := time.Now()
		err := fn(b)
		secs := time.Since(start).Seconds()
		bs.record(block, b.Len(), secs)
		s.emit(obs.Event{Type: obs.EvBlock, Phase: name,
			Block: block, Points: b.Len(), Seconds: secs})
		return err
	})
}

// computeGrid finds per-dimension bounds with one block pass and builds
// the interval grid. Min and max are order-independent, so the grid is
// identical for every block size and source kind.
func (s *searcher) computeGrid() error {
	min := make([]float64, s.d)
	max := make([]float64, s.d)
	for j := range min {
		min[j] = math.Inf(1)
		max[j] = math.Inf(-1)
	}
	err := s.eachBlock("bounds", func(b *dataset.Block) error {
		for i := 0; i < b.Len(); i++ {
			for j, v := range b.Point(i) {
				if v < min[j] {
					min[j] = v
				}
				if v > max[j] {
					max[j] = v
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.grid = newGridBounds(min, max, s.cfg.Xi)
	s.boundsMin, s.boundsMax = min, max
	return nil
}

func (s *searcher) run() (*Result, error) {
	if err := s.computeGrid(); err != nil {
		return nil, err
	}
	s.stats.DatasetPoints = s.n
	s.stats.DatasetDims = s.d
	runStart := time.Now()
	s.emit(obs.Event{Type: obs.EvRunStart, Points: s.n, Dims: s.d})

	res := &Result{DenseBySubspaceDim: []int{0}, Xi: s.cfg.Xi,
		GridMin: s.boundsMin, GridMax: s.boundsMax}
	s.emit(obs.Event{Type: obs.EvPhaseStart, Phase: "histogram"})
	start := time.Now()
	cur, err := s.denseOneDim()
	if err != nil {
		return nil, err
	}
	s.stats.HistogramDuration = time.Since(start)
	res.DenseBySubspaceDim = append(res.DenseBySubspaceDim, countUnits(cur))
	s.emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "histogram",
		Dense: countUnits(cur), Seconds: s.stats.HistogramDuration.Seconds()})

	s.emit(obs.Event{Type: obs.EvPhaseStart, Phase: "search"})
	start = time.Now()
	var levels []*level
	levels = append(levels, cur)
	for q := 2; ; q++ {
		if s.cfg.MaxDims > 0 && q > s.cfg.MaxDims {
			break
		}
		s.emit(obs.Event{Type: obs.EvLevelStart, Level: q})
		levelStart := time.Now()
		cands, err := s.candidates(cur, q)
		if err != nil {
			return nil, err
		}
		nCands := countUnits(cands)
		if nCands == 0 {
			// Close the level event pair so traces stay balanced.
			s.emit(obs.Event{Type: obs.EvLevelEnd, Level: q,
				Seconds: time.Since(levelStart).Seconds()})
			break
		}
		if err := s.countPass(cands); err != nil {
			return nil, err
		}
		next := pruneSparse(cands, s.minCount)
		if s.cfg.MDLPruning {
			next = mdlPrune(next)
		}
		n := countUnits(next)
		res.DenseBySubspaceDim = append(res.DenseBySubspaceDim, n)
		levelDur := time.Since(levelStart)
		s.stats.LevelDurations = append(s.stats.LevelDurations, levelDur)
		s.emit(obs.Event{Type: obs.EvLevelEnd, Level: q,
			Candidates: nCands, Dense: n, Seconds: levelDur.Seconds()})
		s.series.recordLevel(q, levelDur.Seconds(), nCands, n)
		if n == 0 {
			break
		}
		levels = append(levels, next)
		cur = next
	}
	s.stats.SearchDuration = time.Since(start)
	res.Levels = len(levels)
	s.emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "search",
		Level: res.Levels, Seconds: s.stats.SearchDuration.Seconds()})

	s.emit(obs.Event{Type: obs.EvPhaseStart, Phase: "report"})
	start = time.Now()

	// Report clusters. With FixedDims set, only that level is reported.
	// With ReportMaximal, only maximal dense subspaces are. Otherwise
	// every level is, mirroring CLIQUE's raw output (this is what makes
	// its overlap large).
	dense := map[string]bool{}
	if s.cfg.ReportMaximal && s.cfg.FixedDims == 0 {
		for _, lv := range levels {
			for skey := range lv.subspaces {
				dense[skey] = true
			}
		}
	}
	for _, lv := range levels {
		if s.cfg.FixedDims > 0 {
			if lv.q != s.cfg.FixedDims {
				continue
			}
		} else if s.cfg.ReportHighest {
			if lv.q != res.Levels {
				continue
			}
		} else if s.cfg.ReportMaximal {
			// Keep only subspaces with no dense one-dimension superset;
			// by monotonicity of density, that means no dense superset
			// at all.
			filtered := &level{q: lv.q, subspaces: map[string]*subspaceUnits{}}
			for skey, su := range lv.subspaces {
				if isMaximal(su.dims, s.d, dense) {
					filtered.subspaces[skey] = su
				}
			}
			lv = filtered
		}
		res.Clusters = append(res.Clusters, s.connect(lv)...)
	}
	if err := s.countClusterSizes(res.Clusters); err != nil {
		return nil, err
	}
	sortClusters(res.Clusters)
	s.stats.ReportDuration = time.Since(start)
	s.emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "report",
		Clusters: len(res.Clusters), Seconds: s.stats.ReportDuration.Seconds()})

	res.Config = s.cfg.reportConfig()
	s.stats.Counters = s.counters.Snapshot()
	if s.cfg.Series != nil {
		s.stats.Series = s.cfg.Series.Snapshot()
	}
	res.Stats = s.stats
	s.emit(obs.Event{Type: obs.EvRunEnd, Clusters: len(res.Clusters),
		Level: res.Levels, Seconds: time.Since(runStart).Seconds()})
	return res, nil
}

// denseOneDim performs the histogram pass for 1-dimensional units as a
// block pass. Within each block, points shard across workers, each
// accumulating a private histogram; the merges add integers, which
// commute, so the totals are identical for every block size and worker
// count.
func (s *searcher) denseOneDim() (*level, error) {
	d := s.d
	// Each point lands in one 1-dimensional unit per dimension.
	s.counters.PointsScanned.Add(int64(s.n))
	s.counters.DenseUnitProbes.Add(int64(s.n) * int64(d))
	counts := make([][]int, d)
	for j := range counts {
		counts[j] = make([]int, s.cfg.Xi)
	}
	var mu sync.Mutex
	err := s.eachBlock("histogram", func(b *dataset.Block) error {
		parallel.For(b.Len(), s.cfg.Workers, func(lo, hi int) {
			local := make([][]int, d)
			for j := range local {
				local[j] = make([]int, s.cfg.Xi)
			}
			for pi := lo; pi < hi; pi++ {
				for j, v := range b.Point(pi) {
					local[j][s.grid.interval(j, v)]++
				}
			}
			mu.Lock()
			for j := range counts {
				for iv, c := range local[j] {
					counts[j][iv] += c
				}
			}
			mu.Unlock()
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	lv := &level{q: 1, subspaces: map[string]*subspaceUnits{}}
	for j := 0; j < d; j++ {
		su := &subspaceUnits{dims: []int{j}, units: map[uint64]int{}}
		for iv, c := range counts[j] {
			if c > s.minCount {
				su.units[uint64(iv)] = c
			}
		}
		if len(su.units) > 0 {
			lv.subspaces[subspaceKey(su.dims)] = su
		}
	}
	return lv, nil
}

// joinPrefix identifies the (q−1)-units that share their first q−2
// (dimension, interval) pairs: the subspaceKey of those dimensions and
// the key of those intervals, which is the unit key divided by Xi.
type joinPrefix struct {
	subspace string
	key      uint64
}

// joinSuffix is a (q−1)-unit's last (dimension, interval) pair: its
// subspace's last dimension and its unit key modulo Xi.
type joinSuffix struct {
	dim, interval int
}

// candidates generates the level-q candidate units from the dense
// (q−1)-units by the apriori join: two units whose first q−2
// (dimension, interval) pairs coincide and whose last dimensions differ
// join into a q-unit, which is kept only if all its (q−1)-projections
// are dense. Each candidate arises from exactly one pair of parents.
func (s *searcher) candidates(prev *level, q int) (*level, error) {
	next := &level{q: q, subspaces: map[string]*subspaceUnits{}}
	total := 0
	xi := uint64(s.cfg.Xi)

	type group struct {
		dims []int // the prefix's dimensions
		sufs []joinSuffix
	}
	groups := map[joinPrefix]*group{}
	for _, su := range prev.subspaces {
		psub := subspaceKey(su.dims[:q-2])
		for key := range su.units {
			pk := joinPrefix{psub, key / xi}
			g := groups[pk]
			if g == nil {
				g = &group{dims: su.dims[:q-2]}
				groups[pk] = g
			}
			g.sufs = append(g.sufs, joinSuffix{dim: su.dims[q-2], interval: int(key % xi)})
		}
	}
	weights := digitWeights(q-2, s.cfg.Xi)
	maxQ := keyDigits(s.cfg.Xi)
	var buf []byte
	for pk, g := range groups {
		for a := 0; a < len(g.sufs); a++ {
			for b := a + 1; b < len(g.sufs); b++ {
				lo, hi := g.sufs[a], g.sufs[b]
				if lo.dim == hi.dim {
					continue // same dimension, different interval: no join
				}
				if lo.dim > hi.dim {
					lo, hi = hi, lo
				}
				if !s.allProjectionsDense(prev, pk, weights, lo, hi) {
					continue
				}
				if q > maxQ {
					return nil, fmt.Errorf("clique: level %d exceeds the unit key capacity of %d dimensions at Xi = %d; set MaxDims to at most %d",
						q, maxQ, s.cfg.Xi, maxQ)
				}
				buf = appendSubspaceKey(append(buf[:0], pk.subspace...), lo.dim, hi.dim)
				su := next.subspaces[string(buf)]
				if su == nil {
					dims := append(append(make([]int, 0, q), g.dims...), lo.dim, hi.dim)
					su = &subspaceUnits{dims: dims, units: map[uint64]int{}}
					next.subspaces[string(buf)] = su
				}
				su.units[(pk.key*xi+uint64(lo.interval))*xi+uint64(hi.interval)] = 0
				total++
				if s.cfg.MaxUnitsPerLevel > 0 && total > s.cfg.MaxUnitsPerLevel {
					return nil, fmt.Errorf("clique: level %d candidate set exceeds %d units; raise Tau or set MaxDims", q, s.cfg.MaxUnitsPerLevel)
				}
			}
		}
	}
	return next, nil
}

// allProjectionsDense applies the apriori pruning rule: every
// (q−1)-dimensional projection of the candidate pref, lo, hi must be a
// dense unit of the previous level. The two projections that drop lo or
// hi are the joined parents, dense by construction; the q−2 that drop a
// prefix position, of digit weight weights[i], do the pruning. No key
// of q digits is formed, so the check is exact even at a level past the
// key's capacity.
func (s *searcher) allProjectionsDense(prev *level, pref joinPrefix, weights []uint64, lo, hi joinSuffix) bool {
	xi := uint64(s.cfg.Xi)
	var buf [128]byte
	for i, w := range weights {
		sk := append(append(buf[:0], pref.subspace[:2*i]...), pref.subspace[2*i+2:]...)
		su := prev.subspaces[string(appendSubspaceKey(sk, lo.dim, hi.dim))]
		if su == nil {
			return false
		}
		key := (dropDigit(pref.key, w, s.cfg.Xi)*xi+uint64(lo.interval))*xi + uint64(hi.interval)
		if _, ok := su.units[key]; !ok {
			return false
		}
	}
	return true
}

// fillCells computes the interval index of every point of b on every
// dimension into the searcher's reused cell buffer, sharded by points,
// and returns the block's rows.
func (s *searcher) fillCells(b *dataset.Block) []uint8 {
	n := b.Len() * s.d
	if cap(s.cells) < n {
		s.cells = make([]uint8, n)
	}
	cells := s.cells[:n]
	parallel.For(b.Len(), s.cfg.Workers, func(lo, hi int) {
		for pi := lo; pi < hi; pi++ {
			row := cells[pi*s.d : (pi+1)*s.d]
			for j, v := range b.Point(pi) {
				row[j] = uint8(s.grid.interval(j, v))
			}
		}
	})
	return cells
}

// countPass fills in candidate unit counts as a block pass. Within each
// block, every point's interval cells are computed once; then work
// shards by subspace: each worker folds each point's unit key from its
// row and updates only its own subspaces' counters, so no locking is
// needed and the integer totals are identical for every block size and
// worker count.
func (s *searcher) countPass(cands *level) error {
	// Stable iteration order is unnecessary for counting; determinism of
	// the final result comes from sorting when reporting.
	subspaces := make([]*subspaceUnits, 0, len(cands.subspaces))
	for _, su := range cands.subspaces {
		subspaces = append(subspaces, su)
	}
	// Counted once per logical pass, not per shard or block: every point
	// is probed against every subspace exactly once regardless of how the
	// work shards, so the totals stay independent of Workers and block
	// size.
	s.counters.PointsScanned.Add(int64(s.n))
	s.counters.DenseUnitProbes.Add(int64(s.n) * int64(len(subspaces)))
	xi := uint64(s.cfg.Xi)
	return s.eachBlock("count", func(b *dataset.Block) error {
		cells := s.fillCells(b)
		parallel.For(len(subspaces), s.cfg.Workers, func(lo, hi int) {
			shard := subspaces[lo:hi]
			for row := cells; len(row) > 0; row = row[s.d:] {
				for _, su := range shard {
					key := cellKey(su.dims, row, xi)
					if c, ok := su.units[key]; ok {
						su.units[key] = c + 1
					}
				}
			}
		})
		return nil
	})
}

func pruneSparse(cands *level, minCount int) *level {
	out := &level{q: cands.q, subspaces: map[string]*subspaceUnits{}}
	for skey, su := range cands.subspaces {
		kept := &subspaceUnits{dims: su.dims, units: map[uint64]int{}}
		for key, c := range su.units {
			if c > minCount {
				kept.units[key] = c
			}
		}
		if len(kept.units) > 0 {
			out.subspaces[skey] = kept
		}
	}
	return out
}

// connect groups each subspace's dense units into connected components:
// two units are adjacent when they share a common face (interval indices
// equal on all dimensions but one, where they differ by exactly 1).
func (s *searcher) connect(lv *level) []Cluster {
	var clusters []Cluster
	q, xi := lv.q, uint64(s.cfg.Xi)
	weights := digitWeights(q, s.cfg.Xi)
	for _, su := range lv.subspaces {
		visited := make(map[uint64]bool, len(su.units))
		keys := make([]uint64, 0, len(su.units))
		for k := range su.units {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, start := range keys {
			if visited[start] {
				continue
			}
			// BFS over face-adjacent units.
			component := []uint64{start}
			visited[start] = true
			visit := func(nk uint64) {
				if _, dense := su.units[nk]; dense && !visited[nk] {
					visited[nk] = true
					component = append(component, nk)
				}
			}
			for head := 0; head < len(component); head++ {
				k := component[head]
				for _, w := range weights {
					digit := k / w % xi
					if digit > 0 {
						visit(k - w)
					}
					if digit < xi-1 {
						visit(k + w)
					}
				}
			}
			slices.Sort(component)
			cl := Cluster{Dims: append([]int(nil), su.dims...), Units: make([]Unit, len(component))}
			intervals := make([]int, q*len(component))
			for i, k := range component {
				ivs := intervals[i*q : (i+1)*q : (i+1)*q]
				unpackKey(ivs, k, s.cfg.Xi)
				cl.Units[i] = Unit{Dims: cl.Dims, Intervals: ivs, Count: su.units[k]}
			}
			clusters = append(clusters, cl)
		}
	}
	return clusters
}

// subspaceClusters indexes the clusters of one subspace by unit: a
// point's unit key in dims maps to the cluster holding that unit.
type subspaceClusters struct {
	dims  []int
	units map[uint64]int // unit key -> cluster index
}

// indexClusters groups clusters by subspace, in order of first
// appearance, so a point needs one key per subspace to find every
// cluster that covers it.
func indexClusters(clusters []Cluster, xi int) []subspaceClusters {
	var index []subspaceClusters
	pos := map[string]int{}
	for ci, cl := range clusters {
		skey := subspaceKey(cl.Dims)
		i, ok := pos[skey]
		if !ok {
			i = len(index)
			pos[skey] = i
			index = append(index, subspaceClusters{dims: cl.Dims, units: map[uint64]int{}})
		}
		for _, u := range cl.Units {
			index[i].units[packKey(u.Intervals, xi)] = ci
		}
	}
	return index
}

// countClusterSizes computes, in one pass, the number of points covered
// by each cluster (a point lies in exactly one unit per subspace, so it
// counts once per cluster).
func (s *searcher) countClusterSizes(clusters []Cluster) error {
	index := indexClusters(clusters, s.cfg.Xi)
	s.counters.PointsScanned.Add(int64(s.n))
	s.counters.DenseUnitProbes.Add(int64(s.n) * int64(len(index)))
	xi := uint64(s.cfg.Xi)
	// Shard by subspace within each block: every cluster lives in exactly
	// one subspace, so each worker increments a disjoint set of Size
	// fields.
	return s.eachBlock("sizes", func(b *dataset.Block) error {
		cells := s.fillCells(b)
		parallel.For(len(index), s.cfg.Workers, func(lo, hi int) {
			shard := index[lo:hi]
			for row := cells; len(row) > 0; row = row[s.d:] {
				for _, sc := range shard {
					if ci, ok := sc.units[cellKey(sc.dims, row, xi)]; ok {
						clusters[ci].Size++
					}
				}
			}
		})
		return nil
	})
}

// xi returns the grid resolution the run used.
func (res *Result) xi() int {
	if res.Xi == 0 {
		return 10
	}
	return res.Xi
}

// Membership returns, for each cluster in res, the indices of the points
// it covers. It is a separate pass because full membership lists are
// only needed by the evaluation harness.
func Membership(ds *dataset.Dataset, res *Result) [][]int {
	g := newGrid(ds, res.xi())
	index := indexClusters(res.Clusters, res.xi())
	members := make([][]int, len(res.Clusters))
	ds.Each(func(pi int, p []float64) {
		for _, sc := range index {
			if ci, ok := sc.units[g.key(sc.dims, p)]; ok {
				members[ci] = append(members[ci], pi)
			}
		}
	})
	return members
}

// PartitionView flattens a CLIQUE result into a disjoint assignment,
// the reading the PROCLUS paper applies when comparing the two
// algorithms' outputs: every covered point goes to exactly one of the
// clusters containing it — preferring higher subspace dimensionality,
// then the cluster holding more points, then the lower cluster index —
// and uncovered points get -1. The choice is deterministic.
func PartitionView(ds *dataset.Dataset, res *Result) []int {
	a := newPointAssigner(res, newGrid(ds, res.xi()))
	view := make([]int, ds.Len())
	ds.Each(func(pi int, p []float64) { view[pi] = a.Assign(p) })
	return view
}

// prefer reports whether cluster a wins over cluster b when a point is
// covered by both: higher subspace dimensionality first, then the
// cluster holding more points, then the lower cluster index. This is
// the partition-view tie-break, shared with PointAssigner so the two
// agree point for point.
func (res *Result) prefer(a, b int) bool {
	ca, cb := res.Clusters[a], res.Clusters[b]
	if len(ca.Dims) != len(cb.Dims) {
		return len(ca.Dims) > len(cb.Dims)
	}
	if ca.Size != cb.Size {
		return ca.Size > cb.Size
	}
	return a < b
}

// isMaximal reports whether dims (a dense subspace) has no dense
// superset with exactly one more dimension. Density is downward closed
// over subspaces, so this is equivalent to having no dense strict
// superset at all.
func isMaximal(dims []int, totalDims int, dense map[string]bool) bool {
	in := make(map[int]bool, len(dims))
	for _, d := range dims {
		in[d] = true
	}
	super := make([]int, 0, len(dims)+1)
	for x := 0; x < totalDims; x++ {
		if in[x] {
			continue
		}
		super = super[:0]
		inserted := false
		for _, d := range dims {
			if !inserted && x < d {
				super = append(super, x)
				inserted = true
			}
			super = append(super, d)
		}
		if !inserted {
			super = append(super, x)
		}
		if dense[subspaceKey(super)] {
			return false
		}
	}
	return true
}

func countUnits(lv *level) int {
	n := 0
	for _, su := range lv.subspaces {
		n += len(su.units)
	}
	return n
}

func sortClusters(clusters []Cluster) {
	sort.Slice(clusters, func(a, b int) bool {
		ca, cb := clusters[a], clusters[b]
		if len(ca.Dims) != len(cb.Dims) {
			return len(ca.Dims) < len(cb.Dims)
		}
		for i := range ca.Dims {
			if ca.Dims[i] != cb.Dims[i] {
				return ca.Dims[i] < cb.Dims[i]
			}
		}
		// Same subspace: order by first unit's intervals.
		if len(ca.Units) > 0 && len(cb.Units) > 0 {
			ia, ib := ca.Units[0].Intervals, cb.Units[0].Intervals
			for i := range ia {
				if ia[i] != ib[i] {
					return ia[i] < ib[i]
				}
			}
		}
		return len(ca.Units) < len(cb.Units)
	})
}
