// Package proclus is the public API of this repository: a Go
// implementation of PROCLUS, the projected clustering algorithm of
// Aggarwal, Procopiuc, Wolf, Yu and Park ("Fast Algorithms for Projected
// Clustering", SIGMOD 1999), together with the CLIQUE baseline it was
// evaluated against, the paper's synthetic workload generator, a
// full-dimensional k-medoids reference, and the paper's evaluation
// metrics.
//
// # Quick start
//
//	ds, _, err := proclus.Generate(proclus.GeneratorConfig{
//		N: 10000, Dims: 20, K: 5, AvgDims: 7, Seed: 1,
//	})
//	if err != nil { ... }
//	res, err := proclus.Run(ds, proclus.Config{K: 5, L: 7, Seed: 1})
//	if err != nil { ... }
//	for i, c := range res.Clusters {
//		fmt.Printf("cluster %d: %d points, dims %v\n", i, len(c.Members), c.Dimensions)
//	}
//
// The heavy lifting lives in the internal packages; this package
// re-exports the stable surface so downstream users depend on one import
// path.
package proclus

import (
	"context"
	"io"

	"proclus/internal/clique"
	"proclus/internal/core"
	"proclus/internal/dataset"
	"proclus/internal/eval"
	"proclus/internal/medoid"
	"proclus/internal/obs"
	"proclus/internal/obs/archive"
	"proclus/internal/obs/series"
	"proclus/internal/orclus"
	"proclus/internal/registry"
	"proclus/internal/synth"
)

// Dataset is a set of points in d-dimensional space with optional
// ground-truth labels. See NewDataset, FromRows, ReadCSV and Generate.
type Dataset = dataset.Dataset

// Outlier is the ground-truth label of noise points in labeled datasets.
const Outlier = dataset.Outlier

// Config holds the PROCLUS parameters; K (cluster count) and L (average
// dimensions per cluster) are required.
type Config = core.Config

// Result is the output of a PROCLUS run: a (k+1)-way partition plus
// per-cluster dimension sets.
type Result = core.Result

// Cluster is one projected cluster in a Result.
type Cluster = core.Cluster

// OutlierID marks points assigned to no cluster in Result.Assignments.
const OutlierID = core.OutlierID

// Stats records a run's phase timings, per-restart breakdown, hot-path
// counters and hill-climbing trace.
type Stats = core.Stats

// RestartStats describes one hill-climb restart in Stats.Restarts.
type RestartStats = core.RestartStats

// Observer receives structured run events when attached via
// Config.Observer (or CliqueConfig.Observer). Nil disables emission.
type Observer = obs.Observer

// Event is one structured observation: a run/phase/restart boundary, a
// hill-climbing iteration, a medoid replacement, or a CLIQUE lattice
// level.
type Event = obs.Event

// EventType discriminates Events.
type EventType = obs.EventType

// JSONTracer is an Observer writing one JSON object per event.
type JSONTracer = obs.JSONTracer

// ProgressLogger is an Observer printing human-readable progress lines.
type ProgressLogger = obs.ProgressLogger

// RunReport is the machine-readable summary of one run: config, seed,
// per-phase and per-restart timings, counters, objective trace and
// final clusters. Build one with Result.Report (or
// CliqueResult.Report).
type RunReport = obs.RunReport

// CounterSnapshot holds a run's hot-path counters (distance
// evaluations, points scanned, dense-unit probes).
type CounterSnapshot = obs.Snapshot

// ChromeTracer is an Observer serializing the event stream as a Chrome
// trace_event file, loadable in chrome://tracing or Perfetto.
type ChromeTracer = obs.ChromeTracer

// NewJSONTracer returns an Observer writing one JSON line per event to
// w. Safe for concurrent use; check Err after the run.
func NewJSONTracer(w io.Writer) *JSONTracer { return obs.NewJSONTracer(w) }

// NewProgressLogger returns an Observer printing human-readable
// progress lines to w (typically os.Stderr).
func NewProgressLogger(w io.Writer) *ProgressLogger { return obs.NewProgressLogger(w) }

// MultiObserver fans events out to several observers; nils are
// dropped, and zero observers yield nil (emission disabled).
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// NewChromeTracer returns an Observer buffering the event stream as
// Chrome trace_event spans; Close serializes the document to w.
func NewChromeTracer(w io.Writer) *ChromeTracer { return obs.NewChromeTracer(w) }

// SeriesStore records convergence time series — per-iteration objective
// trajectories and per-block latencies — when attached via
// Config.Series (or CliqueConfig.Series). Nil disables recording;
// attaching a store does not change the clustering result by a single
// bit.
type SeriesStore = series.Store

// SeriesStoreSnapshot is a deterministic (name-then-label sorted) copy
// of a store's series, as embedded in Stats.Series and
// RunReport.Series.
type SeriesStoreSnapshot = series.StoreSnapshot

// SeriesSnapshot is one series inside a SeriesStoreSnapshot: its ring
// of retained points plus the total ever appended.
type SeriesSnapshot = series.SeriesSnapshot

// SeriesPoint is one (x, value) sample of a series.
type SeriesPoint = series.Point

// NewSeriesStore returns an empty series store retaining up to
// capacity points per series (0 = default).
func NewSeriesStore(capacity int) *SeriesStore { return series.NewStore(capacity) }

// Series names the PROCLUS engines record into an attached
// SeriesStore. Per-iteration series carry a restart="N" label and use
// the iteration number as X; per-block series carry a pass="name"
// label and use the 1-based block index as X.
const (
	SeriesIterObjective     = core.SeriesIterObjective
	SeriesIterBest          = core.SeriesIterBest
	SeriesIterAccepted      = core.SeriesIterAccepted
	SeriesIterBadMedoids    = core.SeriesIterBadMedoids
	SeriesIterCacheHitRate  = core.SeriesIterCacheHitRate
	SeriesBlockSeconds      = core.SeriesBlockSeconds
	SeriesBlockPointsPerSec = core.SeriesBlockPointsPerSec
)

// Series names the CLIQUE search records: per-lattice-level and (for
// streamed runs) per-block telemetry.
const (
	CliqueSeriesLevelSeconds    = clique.SeriesLevelSeconds
	CliqueSeriesLevelCandidates = clique.SeriesLevelCandidates
	CliqueSeriesLevelDense      = clique.SeriesLevelDense
	CliqueSeriesBlockSeconds    = clique.SeriesBlockSeconds
)

// SeriesLabel builds one name=value label for SeriesStore.Series and
// SeriesStoreSnapshot.Find (e.g. SeriesLabel("restart", "1")).
func SeriesLabel(name, value string) series.Label { return series.L(name, value) }

// Span is one node of a reconstructed run timeline: the run, a phase,
// a restart, or a leaf iteration/level/pass/block.
type Span = obs.Span

// SpanBuilder is an Observer reconstructing the event stream into a
// hierarchical span tree with critical-path extraction; it can also
// replay a recorded trace via Add.
type SpanBuilder = obs.SpanBuilder

// NewSpanBuilder returns an empty span builder to attach via
// Config.Observer (or feed recorded events through Add).
func NewSpanBuilder() *SpanBuilder { return obs.NewSpanBuilder() }

// Watchdog is an Observer that detects stalled runs — a configurable
// non-improving iteration streak or a wall-clock silence deadline —
// emits a structured stall event, and optionally cancels the run.
type Watchdog = obs.Watchdog

// WatchdogOptions configures a Watchdog: the non-improve streak
// threshold, the progress deadline, the cancel hook, and the next
// Observer in the chain.
type WatchdogOptions = obs.WatchdogOptions

// NewWatchdog returns a watchdog to attach via Config.Observer; wire
// its Cancel option to a context.CancelFunc passed to RunContext or
// RunStream to abort stalled runs. Call Stop when done.
func NewWatchdog(opts WatchdogOptions) *Watchdog { return obs.NewWatchdog(opts) }

// StartProfiles begins a CPU profile (cpuPath non-empty) and returns a
// stop function that finishes it and writes a heap profile (memPath
// non-empty). Either path may be empty.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	return obs.StartProfiles(cpuPath, memPath)
}

// RunArchive is the append-only on-disk run store: each saved run
// becomes a directory holding a manifest plus the run's report and
// series snapshot. Loading is corruption-tolerant and retention by
// count garbage-collects the oldest entries. Inspect an archive with `runlens ls/diff/trend`.
type RunArchive = archive.Store

// RunArchiveOptions configures OpenRunArchive (retention by count).
type RunArchiveOptions = archive.Options

// ArchiveManifest is the always-present summary of one archived entry:
// provenance (run ID, git revision, seed, config echo), deterministic
// work counters, per-phase seconds and quality indices.
type ArchiveManifest = archive.Manifest

// ArchiveRecord is one loaded archive entry: its manifest plus
// whichever sibling artifacts (report, series) were recorded
// and still parse.
type ArchiveRecord = archive.Record

// ArchivedRun bundles one completed run's artifacts for
// RunArchive.SaveRun; build one from a report with ArchiveFromReport.
type ArchivedRun = archive.Run

// OpenRunArchive opens (creating if needed) the run archive rooted at
// dir.
func OpenRunArchive(dir string, opts RunArchiveOptions) (*RunArchive, error) {
	return archive.Open(dir, opts)
}

// ArchiveFromReport builds an ArchivedRun from a finished run report:
// algorithm, seed, config echo, phases, counters and series all come
// from the report itself.
func ArchiveFromReport(rep *RunReport) ArchivedRun { return archive.FromReport(rep) }

// InitMethod selects the candidate-medoid initialization strategy.
type InitMethod = core.InitMethod

// Initialization strategies: the paper's greedy farthest-first over a
// random sample, or uniform random selection (ablation baseline).
const (
	InitGreedy = core.InitGreedy
	InitRandom = core.InitRandom
)

// AssignMetric selects the point-to-medoid distance.
type AssignMetric = core.AssignMetric

// Assignment metrics: the paper's Manhattan segmental distance, or
// unnormalized Manhattan over each medoid's dimensions (ablation
// baseline).
const (
	MetricSegmental = core.MetricSegmental
	MetricManhattan = core.MetricManhattan
)

// EvalMode selects the hill-climb evaluation engine.
type EvalMode = core.EvalMode

// Evaluation engines: the incremental engine over a candidate
// distance table (default), or naive from-scratch re-evaluation
// (escape hatch and equivalence baseline). Both produce bit-identical
// Results.
const (
	EvalIncremental = core.EvalIncremental
	EvalNaive       = core.EvalNaive
)

// Run executes PROCLUS on ds.
func Run(ds *Dataset, cfg Config) (*Result, error) { return core.Run(ds, cfg) }

// RunContext executes PROCLUS on ds, aborting between hill-climbing
// trials when ctx is cancelled.
func RunContext(ctx context.Context, ds *Dataset, cfg Config) (*Result, error) {
	return core.RunContext(ctx, ds, cfg)
}

// PointSource yields a dataset as a sequence of bounded blocks for the
// out-of-core entry points, and reads single points by position for
// PROCLUS's initialization sample. See NewMemorySource and
// OpenFileSource.
type PointSource = core.PointSource

// MemorySource adapts an in-memory Dataset to the PointSource
// interface (zero-copy blocks; mostly for testing and equivalence).
type MemorySource = dataset.MemorySource

// FileSource is a disk-resident PointSource over the binary dataset
// format; every Blocks pass re-scans the file in bounded memory.
type FileSource = dataset.FileSource

// NewMemorySource wraps ds as a PointSource with the given block
// granularity (0 = default).
func NewMemorySource(ds *Dataset, blockPoints int) *MemorySource {
	return dataset.NewMemorySource(ds, blockPoints)
}

// OpenFileSource opens a binary dataset file as a PointSource with the
// given block granularity (0 = default).
func OpenFileSource(path string, blockPoints int) (*FileSource, error) {
	return dataset.OpenFileSource(path, blockPoints)
}

// RunStream executes PROCLUS over a PointSource in bounded memory:
// every full-data pass streams blocks, while the hill-climbing trials
// run on the in-memory greedy sample as the paper prescribes. Results
// are bit-identical for any block size, worker count, and source kind.
func RunStream(ctx context.Context, src PointSource, cfg Config) (*Result, error) {
	return core.RunStream(ctx, src, cfg)
}

// RunCLIQUEStream executes CLIQUE over a PointSource in bounded
// memory; results are bit-identical to RunCLIQUE on the same data.
func RunCLIQUEStream(ctx context.Context, src PointSource, cfg CliqueConfig) (*CliqueResult, error) {
	return clique.RunStream(ctx, src, cfg)
}

// LSweepPoint is one point of an l-parameter sweep.
type LSweepPoint = core.LSweepPoint

// SweepL runs PROCLUS for every l in [minL, maxL], the loop §4.3 of the
// paper recommends when the average cluster dimensionality is unknown.
func SweepL(ds *Dataset, cfg Config, minL, maxL int) ([]LSweepPoint, error) {
	return core.SweepL(ds, cfg, minL, maxL)
}

// SuggestL picks an l from a sweep by elbow detection on the objective
// curve.
func SuggestL(points []LSweepPoint) (int, error) { return core.SuggestL(points) }

// KSweepPoint is one point of a k-parameter sweep.
type KSweepPoint = core.KSweepPoint

// SweepK runs PROCLUS for every k in [minK, maxK] with otherwise fixed
// configuration.
func SweepK(ds *Dataset, cfg Config, minK, maxK int) ([]KSweepPoint, error) {
	return core.SweepK(ds, cfg, minK, maxK)
}

// SuggestK picks a k from a sweep by knee detection on the objective
// curve.
func SuggestK(points []KSweepPoint) (int, error) { return core.SuggestK(points) }

// CliqueConfig holds the CLIQUE parameters (grid resolution Xi and
// density threshold Tau).
type CliqueConfig = clique.Config

// CliqueResult is the output of a CLIQUE run: dense-unit clusters per
// subspace, which may overlap.
type CliqueResult = clique.Result

// RunCLIQUE executes the CLIQUE baseline on ds.
func RunCLIQUE(ds *Dataset, cfg CliqueConfig) (*CliqueResult, error) { return clique.Run(ds, cfg) }

// CliqueMembership returns each CLIQUE cluster's covered point indices.
func CliqueMembership(ds *Dataset, res *CliqueResult) [][]int { return clique.Membership(ds, res) }

// Region is an axis-parallel hyper-rectangle of grid units used in
// CLIQUE cluster descriptions.
type Region = clique.Region

// DescribeCliqueCluster returns a minimal cover of a CLIQUE cluster's
// dense units by maximal axis-parallel regions (CLIQUE's description
// step).
func DescribeCliqueCluster(cl clique.Cluster) []Region { return clique.Describe(cl) }

// CliquePartitionView flattens a CLIQUE result into a disjoint
// assignment (one cluster per covered point, -1 for uncovered),
// preferring higher-dimensional then larger clusters.
func CliquePartitionView(ds *Dataset, res *CliqueResult) []int {
	return clique.PartitionView(ds, res)
}

// GeneratorConfig describes a synthetic dataset in the sense of §4.1 of
// the paper.
type GeneratorConfig = synth.Config

// GroundTruth records the clusters a generated dataset actually
// contains.
type GroundTruth = synth.GroundTruth

// Generate produces a labeled synthetic dataset and its ground truth.
func Generate(cfg GeneratorConfig) (*Dataset, *GroundTruth, error) { return synth.Generate(cfg) }

// ORCLUSConfig parameterizes generalized (arbitrarily oriented)
// projected clustering — the future-work direction of the paper's
// conclusions, published by two of its authors as ORCLUS (SIGMOD 2000).
type ORCLUSConfig = orclus.Config

// ORCLUSResult is the output of an ORCLUS run: clusters with arbitrary
// orthonormal subspace bases instead of axis subsets.
type ORCLUSResult = orclus.Result

// ORCLUSCluster is one generalized projected cluster.
type ORCLUSCluster = orclus.Cluster

// RunORCLUS executes generalized projected clustering on ds.
func RunORCLUS(ds *Dataset, cfg ORCLUSConfig) (*ORCLUSResult, error) { return orclus.Run(ds, cfg) }

// OrientedConfig describes a synthetic workload of arbitrarily oriented
// projected clusters.
type OrientedConfig = synth.OrientedConfig

// OrientedTruth records an oriented workload's generated structure.
type OrientedTruth = synth.OrientedTruth

// GenerateOriented produces a labeled dataset of arbitrarily oriented
// projected clusters.
func GenerateOriented(cfg OrientedConfig) (*Dataset, *OrientedTruth, error) {
	return synth.GenerateOriented(cfg)
}

// KMedoidsConfig parameterizes the full-dimensional CLARANS-style
// baseline.
type KMedoidsConfig = medoid.Config

// KMedoidsResult is a full-dimensional clustering.
type KMedoidsResult = medoid.Result

// RunKMedoids executes the full-dimensional k-medoids baseline on ds.
func RunKMedoids(ds *Dataset, cfg KMedoidsConfig) (*KMedoidsResult, error) {
	return medoid.Run(ds, cfg)
}

// ConfusionMatrix cross-tabulates output clusters against ground-truth
// input clusters, in the layout of the paper's Tables 3 and 4.
type ConfusionMatrix = eval.ConfusionMatrix

// NewConfusion builds a confusion matrix from ground-truth labels and an
// assignment vector (negative = outlier).
func NewConfusion(labels, assignments []int, numOutput, numInput int) (*ConfusionMatrix, error) {
	return eval.NewConfusion(labels, assignments, numOutput, numInput)
}

// DimensionMatch scores a recovered dimension set against ground truth.
type DimensionMatch = eval.DimensionMatch

// MatchDimensions compares the recovered dimension set found against
// truth, returning precision, recall and exactness.
func MatchDimensions(found, truth []int) DimensionMatch { return eval.MatchDimensions(found, truth) }

// AverageOverlap computes Σ|C_i| / |∪C_i| over possibly-overlapping
// cluster membership lists (the paper's overlap metric for CLIQUE).
func AverageOverlap(memberships [][]int) (float64, error) { return eval.AverageOverlap(memberships) }

// Coverage returns the fraction of true cluster points appearing in at
// least one output cluster.
func Coverage(labels []int, memberships [][]int) float64 { return eval.Coverage(labels, memberships) }

// AdjustedRandIndex scores an assignment against ground-truth labels;
// 1 = identical partitions, ~0 = chance. Negative values of either side
// form one extra outlier group.
func AdjustedRandIndex(labels, assignments []int) (float64, error) {
	return eval.AdjustedRandIndex(labels, assignments)
}

// NormalizedMutualInfo scores an assignment against ground-truth labels
// in [0, 1] (arithmetic normalization).
func NormalizedMutualInfo(labels, assignments []int) (float64, error) {
	return eval.NormalizedMutualInfo(labels, assignments)
}

// NewDataset returns an empty dataset of the given dimensionality.
func NewDataset(dims int) *Dataset { return dataset.New(dims) }

// FromRows builds a dataset from rows, with optional labels.
func FromRows(rows [][]float64, labels []int) (*Dataset, error) {
	return dataset.FromRows(rows, labels)
}

// ReadCSV reads a dataset from CSV; if hasLabels is set, the last column
// is the ground-truth label.
func ReadCSV(r io.Reader, hasLabels bool) (*Dataset, error) { return dataset.ReadCSV(r, hasLabels) }

// LoadFile reads a dataset from a .csv or binary file produced by
// Dataset.SaveFile.
func LoadFile(path string, hasLabels bool) (*Dataset, error) {
	return dataset.LoadFile(path, hasLabels)
}

// Algorithm is one entry of the algorithm registry: a named clustering
// algorithm with declared capabilities, fitted through the uniform
// Fit entry point. PROCLUS, CLIQUE, ORCLUS and the full-dimensional
// k-medoids baseline register themselves at init.
type Algorithm = registry.Algorithm

// Model is a fitted clustering returned by Fit: cluster count,
// per-point assignments (when the fit holds them), nearest-medoid
// assignment of new points where supported, and a uniform report.
// Unwrap exposes the algorithm-specific result type.
type Model = registry.Model

// FitConfig is the shared configuration of the registry's Fit entry
// point: the common knobs (K, L, Seed, Workers, observability sinks)
// plus per-algorithm parameter blocks. Knobs an algorithm does not
// support are rejected with an error naming it.
type FitConfig = registry.Config

// FitSource selects a fit's input: exactly one of an in-memory Dataset
// or a streaming PointSource.
type FitSource = registry.Source

// AlgorithmCaps declares which shared knobs an algorithm accepts.
type AlgorithmCaps = registry.Caps

// CliqueParams, OrclusParams and MedoidParams are the per-algorithm
// parameter blocks of FitConfig.
type (
	CliqueParams = registry.CliqueParams
	OrclusParams = registry.OrclusParams
	MedoidParams = registry.MedoidParams
)

// Fit runs the named registered algorithm ("proclus", "clique",
// "orclus" or "kmedoids") on src. Results are bit-identical to calling
// the algorithm's direct entry point with the same parameters.
func Fit(ctx context.Context, name string, src FitSource, cfg FitConfig) (Model, error) {
	return registry.Fit(ctx, name, src, cfg)
}

// Algorithms lists the registered algorithm names, sorted.
func Algorithms() []string { return registry.Names() }

// LookupAlgorithm resolves a registered algorithm by name; the error
// for an unknown name lists what is available.
func LookupAlgorithm(name string) (Algorithm, error) { return registry.Get(name) }
