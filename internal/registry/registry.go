// Package registry unifies the repository's clustering algorithms —
// PROCLUS, CLIQUE, ORCLUS and the full-dimensional k-medoids baseline —
// behind one interchangeable Algorithm interface, in the spirit of the
// ELKI framework's algorithm registry. A caller names an algorithm,
// hands it a data source and one shared Config, and gets back a fitted
// Model that can report its assignments, classify fresh points, and
// emit the shared machine-readable run report.
//
// The registry is a thin, validating router: every adapter forwards to
// the algorithm package's own Run/RunStream entry points with a direct
// field-for-field translation of the shared Config, so registry-routed
// runs are bit-identical to direct calls (the metamorphic suite pins
// this for every worker count). What the registry adds is the
// capability check — a combination an algorithm does not support
// (streaming ORCLUS, a cluster count K on CLIQUE, a series store on
// k-medoids, CLIQUE grid parameters handed to PROCLUS, …) is rejected
// with a clear error instead of being silently ignored.
package registry

import (
	"context"
	"fmt"
	"sort"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/obs/metrics"
	"proclus/internal/obs/series"
)

// PointSource is the out-of-core data abstraction shared by the
// streaming-capable algorithms: a point set of known shape sweepable in
// contiguous blocks any number of times. It is structurally identical
// to core.PointSource and clique.PointSource, so dataset.MemorySource
// and dataset.FileSource satisfy all three.
type PointSource interface {
	Len() int
	Dims() int
	Blocks(ctx context.Context, fn func(*dataset.Block) error) error
}

var (
	_ PointSource = (*dataset.MemorySource)(nil)
	_ PointSource = (*dataset.FileSource)(nil)
)

// Source is the data an algorithm fits: exactly one of Dataset (fully
// in-memory) or Stream (out-of-core block source) must be set. Stream
// selects the algorithm's RunStream path and requires Caps.Stream.
type Source struct {
	Dataset *dataset.Dataset
	Stream  PointSource
}

func (s Source) validate() error {
	switch {
	case s.Dataset == nil && s.Stream == nil:
		return fmt.Errorf("registry: source needs a Dataset or a Stream")
	case s.Dataset != nil && s.Stream != nil:
		return fmt.Errorf("registry: source has both a Dataset and a Stream; set exactly one")
	}
	return nil
}

// Config is the shared cross-algorithm configuration. The flat fields
// are the knobs more than one algorithm understands; the per-algorithm
// structs carry the knobs only that algorithm takes. Setting a knob an
// algorithm does not support — including another algorithm's param
// struct — fails Fit with a clear error rather than being ignored, so
// a CLI flag can never silently do nothing.
type Config struct {
	// K is the number of clusters (PROCLUS, ORCLUS, k-medoids; CLIQUE
	// is density-based and rejects it).
	K int
	// L is the subspace dimensionality per cluster (PROCLUS, ORCLUS;
	// rejected by the full-dimensional and density-based algorithms).
	L int
	// Seed drives all randomness. CLIQUE is deterministic and ignores
	// it (accepted everywhere so one seed can sweep all algorithms).
	Seed uint64
	// Workers bounds the goroutines of the parallel passes; values
	// below 1 select GOMAXPROCS. Requires Caps.Workers when above 1.
	Workers int

	// Clique carries the CLIQUE grid parameters.
	Clique CliqueParams
	// Orclus carries the ORCLUS loop parameters.
	Orclus OrclusParams
	// Medoid carries the CLARANS-style k-medoids parameters.
	Medoid MedoidParams

	// Observer receives structured run events. Algorithms without
	// internal instrumentation (ORCLUS, k-medoids) still emit run
	// start/end events from their adapters, so traces stay balanced.
	Observer obs.Observer
	// Metrics is the registry the run records quantitative telemetry
	// into (PROCLUS, CLIQUE).
	Metrics *metrics.Registry
	// Series is the per-iteration time-series store (PROCLUS, CLIQUE).
	Series *series.Store
}

// CliqueParams are the knobs only CLIQUE takes. The zero value means
// "not set"; defaults are applied by the clique package itself.
type CliqueParams struct {
	Xi               int
	Tau              float64
	MaxDims          int
	FixedDims        int
	MaxUnitsPerLevel int
	ReportMaximal    bool
	ReportHighest    bool
	MDLPruning       bool
}

// OrclusParams are the knobs only ORCLUS takes.
type OrclusParams struct {
	K0Factor       int
	Alpha          float64
	HandleOutliers bool
}

// MedoidParams are the knobs only k-medoids takes.
type MedoidParams struct {
	MaxNeighbors int
	Restarts     int
}

// Caps declares what an algorithm supports; Fit rejects configurations
// outside it before the algorithm runs.
type Caps struct {
	// TakesK / TakesL: whether the algorithm accepts the shared K / L.
	TakesK, TakesL bool
	// Stream: fitting from a Source.Stream block source.
	Stream bool
	// Metrics / Series: internal telemetry recording.
	Metrics, Series bool
	// Workers: parallel execution (Workers > 1).
	Workers bool
	// CliqueParams / OrclusParams / MedoidParams: which per-algorithm
	// param struct the algorithm reads.
	CliqueParams, OrclusParams, MedoidParams bool
}

// Algorithm is one registered clustering algorithm.
type Algorithm interface {
	// Name is the registry key ("proclus", "clique", …).
	Name() string
	// Caps declares the supported configuration surface.
	Caps() Caps
	// Fit runs the algorithm. The registry validates src and cfg
	// against Caps before calling this.
	Fit(ctx context.Context, src Source, cfg Config) (Model, error)
}

// Model is a fitted clustering.
type Model interface {
	// Algorithm returns the producing algorithm's registry name.
	Algorithm() string
	// NumClusters returns the number of output clusters.
	NumClusters() int
	// Assignments returns the fitted point→cluster assignment (-1 for
	// outliers / uncovered points), or nil when the fit was streamed
	// and no per-point assignment is resident.
	Assignments() []int
	// Assign classifies one fresh point against the fitted model,
	// returning a cluster index or -1. It is a nearest-structure rule
	// (nearest projected centroid / medoid, or dense-unit lookup), not
	// a rerun of the training-time outlier logic.
	Assign(point []float64) int
	// Report emits the shared machine-readable run report.
	Report() *obs.RunReport
	// Unwrap returns the algorithm package's own result struct
	// (*core.Result, *clique.Result, *orclus.Result, *medoid.Result)
	// for callers needing the full native surface.
	Unwrap() any
}

var algorithms = map[string]Algorithm{}

// Register adds an algorithm under its Name. Registering the same name
// twice panics: registrations happen at init time and a duplicate is a
// programming error.
func Register(a Algorithm) {
	name := a.Name()
	if _, dup := algorithms[name]; dup {
		panic(fmt.Sprintf("registry: duplicate algorithm %q", name))
	}
	algorithms[name] = a
}

// Get returns the algorithm registered under name.
func Get(name string) (Algorithm, error) {
	a, ok := algorithms[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown algorithm %q (have %v)", name, Names())
	}
	return a, nil
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	names := make([]string, 0, len(algorithms))
	for name := range algorithms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Fit resolves name, validates src and cfg against the algorithm's
// capabilities, and runs it.
func Fit(ctx context.Context, name string, src Source, cfg Config) (Model, error) {
	a, err := Get(name)
	if err != nil {
		return nil, err
	}
	if err := src.validate(); err != nil {
		return nil, err
	}
	if err := checkCaps(a.Name(), a.Caps(), src, cfg); err != nil {
		return nil, err
	}
	return a.Fit(ctx, src, cfg)
}

// checkCaps rejects every configured knob the algorithm does not
// support, with an error naming both the knob and the algorithm.
func checkCaps(name string, caps Caps, src Source, cfg Config) error {
	switch {
	case src.Stream != nil && !caps.Stream:
		return fmt.Errorf("registry: %s cannot fit from a stream; load the dataset in memory", name)
	case cfg.K != 0 && !caps.TakesK:
		return fmt.Errorf("registry: %s does not take a cluster count K (density-based)", name)
	case cfg.L != 0 && !caps.TakesL:
		return fmt.Errorf("registry: %s does not take a subspace dimensionality L", name)
	case cfg.Metrics != nil && !caps.Metrics:
		return fmt.Errorf("registry: %s does not record into a metrics registry", name)
	case cfg.Series != nil && !caps.Series:
		return fmt.Errorf("registry: %s does not record convergence series; drop the series store", name)
	case cfg.Workers > 1 && !caps.Workers:
		return fmt.Errorf("registry: %s runs serially; drop the worker budget", name)
	case cfg.Clique != (CliqueParams{}) && !caps.CliqueParams:
		return fmt.Errorf("registry: %s does not take CLIQUE grid parameters (xi/tau/…)", name)
	case cfg.Orclus != (OrclusParams{}) && !caps.OrclusParams:
		return fmt.Errorf("registry: %s does not take ORCLUS parameters (k0-factor/alpha/…)", name)
	case cfg.Medoid != (MedoidParams{}) && !caps.MedoidParams:
		return fmt.Errorf("registry: %s does not take k-medoids parameters (max-neighbors/restarts)", name)
	}
	return nil
}
