package core

import (
	"sync"

	"proclus/internal/obs"
	"proclus/internal/obs/metrics"
)

// PROCLUS metric series names. The *_total counters mirror the exact
// obs.Counters totals; the histograms and rate capture the
// distributions the paper's §4 scalability story is made of.
const (
	MetricPhaseSeconds   = "proclus_phase_seconds"
	MetricRestartSeconds = "proclus_restart_seconds"
	MetricObjectiveDelta = "proclus_objective_delta"
	MetricAssignRate     = "proclus_assign_points_per_second"
	MetricDistanceEvals  = "proclus_distance_evals_total"
	MetricPointsScanned  = "proclus_points_scanned_total"
	// The evaluation series split proclus_distance_evals_total by how
	// each evaluation ended and count the coordinates the evaluations
	// read. Every PROCLUS evaluation runs to completion, so the full
	// series equals proclus_distance_evals_total, the abandoned series
	// stays at zero, and the coordinate series is the Σ evals × |dims|
	// product.
	MetricDistanceEvalsFull      = "proclus_distance_evals_full_total"
	MetricDistanceEvalsAbandoned = "proclus_distance_evals_abandoned_total"
	MetricCoordsVisited          = "proclus_coords_visited_total"
	// The cache series quantify the incremental engine's savings:
	// hits are distance evaluations avoided relative to naive
	// evaluation, recomputes are cache-column refills actually
	// performed (each also counted in proclus_distance_evals_total).
	MetricDistCacheHits       = "proclus_distcache_hits_total"
	MetricDistCacheRecomputes = "proclus_distcache_recomputes_total"
	MetricDatasetPoints       = "proclus_dataset_points"
	MetricDatasetDims         = "proclus_dataset_dims"
	MetricObjectiveLatest     = "proclus_objective"
	// The stream series exist only on out-of-core runs (RunStream):
	// blocks and bytes delivered by the block passes, and the peak
	// number of points the engine held resident at once — the
	// O(sample + block) bound the streamed memory model promises.
	MetricStreamBlocks       = "proclus_stream_blocks_total"
	MetricStreamBytes        = "proclus_stream_bytes_total"
	MetricStreamResidentPeak = "proclus_stream_resident_points_peak"
)

// runnerMetrics caches pre-resolved metric handles so instrumentation
// sites never take the registry mutex on the hot path. A nil
// *runnerMetrics (white-box tests construct runners directly) no-ops
// everywhere, like a nil observer.
type runnerMetrics struct {
	reg *metrics.Registry

	phaseSeconds        map[string]*metrics.Histogram
	restartSeconds      *metrics.Histogram
	objectiveDelta      *metrics.Histogram
	assignRate          *metrics.Rate
	distanceEvals       *metrics.Gauge
	distanceEvalsFull   *metrics.Gauge
	distanceEvalsAband  *metrics.Gauge
	coordsVisited       *metrics.Gauge
	pointsScanned       *metrics.Gauge
	distCacheHits       *metrics.Gauge
	distCacheRecomputes *metrics.Gauge
	datasetPoints       *metrics.Gauge
	datasetDims         *metrics.Gauge
	objective           *metrics.Gauge

	// Stream handles are registered lazily by enableStream: only
	// out-of-core runs carry the series, so in-memory runs' registries
	// (and their golden snapshots) are untouched. All three are nil —
	// and their observation sites no-ops — otherwise.
	streamBlocks       *metrics.Gauge
	streamBytes        *metrics.Gauge
	streamResidentPeak *metrics.Gauge

	// foldMu guards folded, the counter snapshot already credited to the
	// registry. Folding deltas (rather than setting totals) keeps the
	// registry counters monotonic when several runs share one registry —
	// the live-monitoring and benchmark-accumulation cases.
	foldMu sync.Mutex
	folded obs.Snapshot
}

// newRunnerMetrics resolves every handle up front, which also makes all
// series (phase histograms included) visible on a live /metrics
// endpoint from the first moment of the run.
func newRunnerMetrics(reg *metrics.Registry) *runnerMetrics {
	if reg == nil {
		return nil
	}
	m := &runnerMetrics{reg: reg, phaseSeconds: map[string]*metrics.Histogram{}}
	for _, phase := range []string{"initialize", "iterate", "refine"} {
		m.phaseSeconds[phase] = reg.Histogram(MetricPhaseSeconds,
			"wall time of one algorithm phase in seconds", metrics.L("phase", phase))
	}
	m.restartSeconds = reg.Histogram(MetricRestartSeconds,
		"wall time of one hill-climb restart in seconds")
	m.objectiveDelta = reg.Histogram(MetricObjectiveDelta,
		"objective improvement of accepted hill-climb trials")
	m.assignRate = reg.Rate(MetricAssignRate,
		"assignment-pass throughput in points per second")
	m.distanceEvals = reg.Counter(MetricDistanceEvals,
		"point-to-point distance evaluations")
	m.distanceEvalsFull = reg.Counter(MetricDistanceEvalsFull,
		"distance evaluations run to completion")
	m.distanceEvalsAband = reg.Counter(MetricDistanceEvalsAbandoned,
		"distance evaluations cut short by an early-abandonment cutoff (none in PROCLUS)")
	m.coordsVisited = reg.Counter(MetricCoordsVisited,
		"coordinates read by distance evaluations")
	m.pointsScanned = reg.Counter(MetricPointsScanned,
		"data-point visits by full-dataset passes")
	m.distCacheHits = reg.Counter(MetricDistCacheHits,
		"distance evaluations avoided by the incremental hill-climb cache")
	m.distCacheRecomputes = reg.Counter(MetricDistCacheRecomputes,
		"distance-cache column entries recomputed after medoid swaps")
	m.datasetPoints = reg.Gauge(MetricDatasetPoints, "points in the current input")
	m.datasetDims = reg.Gauge(MetricDatasetDims, "dimensionality of the current input")
	m.objective = reg.Gauge(MetricObjectiveLatest, "objective of the latest finished run")
	return m
}

// enableStream registers the out-of-core series. RunStream calls it
// once before its first block pass.
func (m *runnerMetrics) enableStream() {
	if m == nil {
		return
	}
	m.streamBlocks = m.reg.Counter(MetricStreamBlocks,
		"blocks delivered by out-of-core point-source passes")
	m.streamBytes = m.reg.Counter(MetricStreamBytes,
		"encoded point bytes delivered by out-of-core passes")
	m.streamResidentPeak = m.reg.Gauge(MetricStreamResidentPeak,
		"peak resident point storage of the streamed engine (sample + block buffers)")
}

func (m *runnerMetrics) observeStreamResidentPeak(points int) {
	if m == nil || m.streamResidentPeak == nil {
		return
	}
	m.streamResidentPeak.Set(float64(points))
}

func (m *runnerMetrics) observeRunStart(points, dims int) {
	if m == nil {
		return
	}
	m.datasetPoints.Set(float64(points))
	m.datasetDims.Set(float64(dims))
}

func (m *runnerMetrics) observePhase(phase string, seconds float64) {
	if m == nil {
		return
	}
	m.phaseSeconds[phase].Observe(seconds)
}

func (m *runnerMetrics) observeRestart(seconds float64) {
	if m == nil {
		return
	}
	m.restartSeconds.Observe(seconds)
}

func (m *runnerMetrics) observeObjectiveDelta(delta float64) {
	if m == nil {
		return
	}
	m.objectiveDelta.Observe(delta)
}

func (m *runnerMetrics) observeAssign(points int64, seconds float64) {
	if m == nil {
		return
	}
	m.assignRate.Observe(points, seconds)
}

func (m *runnerMetrics) observeObjective(v float64) {
	if m == nil {
		return
	}
	m.objective.Set(v)
}

// fold credits the counter growth since the previous fold to the
// registry's counter series. Called at phase and restart boundaries, so
// a live /metrics scrape tracks the run's progress without any per-point
// cost.
func (m *runnerMetrics) fold(c *obs.Counters) {
	if m == nil {
		return
	}
	cur := c.Snapshot()
	m.foldMu.Lock()
	d := obs.Snapshot{
		DistanceEvals:          cur.DistanceEvals - m.folded.DistanceEvals,
		DistanceEvalsFull:      cur.DistanceEvalsFull - m.folded.DistanceEvalsFull,
		DistanceEvalsAbandoned: cur.DistanceEvalsAbandoned - m.folded.DistanceEvalsAbandoned,
		CoordsVisited:          cur.CoordsVisited - m.folded.CoordsVisited,
		PointsScanned:          cur.PointsScanned - m.folded.PointsScanned,
		DistCacheHits:          cur.DistCacheHits - m.folded.DistCacheHits,
		DistCacheRecomputes:    cur.DistCacheRecomputes - m.folded.DistCacheRecomputes,
		StreamBlocks:           cur.StreamBlocks - m.folded.StreamBlocks,
		StreamBytes:            cur.StreamBytes - m.folded.StreamBytes,
	}
	m.folded = cur
	m.foldMu.Unlock()
	if d.DistanceEvals != 0 {
		m.distanceEvals.Add(float64(d.DistanceEvals))
	}
	if d.DistanceEvalsFull != 0 {
		m.distanceEvalsFull.Add(float64(d.DistanceEvalsFull))
	}
	if d.DistanceEvalsAbandoned != 0 {
		m.distanceEvalsAband.Add(float64(d.DistanceEvalsAbandoned))
	}
	if d.CoordsVisited != 0 {
		m.coordsVisited.Add(float64(d.CoordsVisited))
	}
	if d.PointsScanned != 0 {
		m.pointsScanned.Add(float64(d.PointsScanned))
	}
	if d.DistCacheHits != 0 {
		m.distCacheHits.Add(float64(d.DistCacheHits))
	}
	if d.DistCacheRecomputes != 0 {
		m.distCacheRecomputes.Add(float64(d.DistCacheRecomputes))
	}
	if d.StreamBlocks != 0 && m.streamBlocks != nil {
		m.streamBlocks.Add(float64(d.StreamBlocks))
	}
	if d.StreamBytes != 0 && m.streamBytes != nil {
		m.streamBytes.Add(float64(d.StreamBytes))
	}
}

// snapshot returns the registry's current state for embedding in Stats.
func (m *runnerMetrics) snapshot() metrics.Snapshot {
	if m == nil {
		return nil
	}
	return m.reg.Snapshot()
}
