package clique

import (
	"time"

	"proclus/internal/obs"
	"proclus/internal/obs/series"
)

// Stats is the observability record of one CLIQUE run.
type Stats struct {
	// HistogramDuration covers the 1-dimensional density pass.
	HistogramDuration time.Duration
	// SearchDuration covers the bottom-up lattice search (levels ≥ 2).
	SearchDuration time.Duration
	// ReportDuration covers cluster connection, size counting and
	// sorting.
	ReportDuration time.Duration
	// LevelDurations breaks SearchDuration down per lattice level,
	// starting at level 2 (level 1 is the histogram pass).
	LevelDurations []time.Duration
	// Counters snapshots the run's hot-path counters (points scanned,
	// dense-unit probes).
	Counters obs.Snapshot
	// Series snapshots the time-series store at run end: per-level
	// candidate/dense trajectories and, on streamed runs, per-block
	// latency. Empty unless the run was given a store (Config.Series) —
	// series recording has no private fallback.
	Series series.StoreSnapshot
	// DatasetPoints and DatasetDims record the input's shape, so a
	// Result can describe its provenance in run reports.
	DatasetPoints int
	DatasetDims   int
}

// ConfigReport is the JSON-safe echo of an effective Config (defaults
// applied), embedded in run reports so any run can be replayed exactly
// from its report. It excludes the Observer, which is a runtime
// attachment rather than a parameter of the computation.
type ConfigReport struct {
	Xi               int     `json:"xi"`
	Tau              float64 `json:"tau"`
	MaxDims          int     `json:"max_dims,omitempty"`
	FixedDims        int     `json:"fixed_dims,omitempty"`
	MaxUnitsPerLevel int     `json:"max_units_per_level"`
	ReportMaximal    bool    `json:"report_maximal,omitempty"`
	ReportHighest    bool    `json:"report_highest,omitempty"`
	MDLPruning       bool    `json:"mdl_pruning,omitempty"`
	Workers          int     `json:"workers"`
	// Stream and BlockPoints are stamped by RunStream, not reportConfig:
	// they describe the delivery mechanism of an out-of-core run. Both
	// stay zero (and absent from JSON) on in-memory runs, keeping
	// existing reports byte-stable.
	Stream      bool `json:"stream,omitempty"`
	BlockPoints int  `json:"block_points,omitempty"`
}

// reportConfig builds the JSON-safe echo of cfg.
func (cfg Config) reportConfig() ConfigReport {
	return ConfigReport{
		Xi:               cfg.Xi,
		Tau:              cfg.Tau,
		MaxDims:          cfg.MaxDims,
		FixedDims:        cfg.FixedDims,
		MaxUnitsPerLevel: cfg.MaxUnitsPerLevel,
		ReportMaximal:    cfg.ReportMaximal,
		ReportHighest:    cfg.ReportHighest,
		MDLPruning:       cfg.MDLPruning,
		Workers:          cfg.Workers,
	}
}

// Report assembles the machine-readable run report: effective config,
// per-phase timings, hot-path counters, per-level dense-unit counts and
// the final cluster summary. CLIQUE is deterministic, so the report
// carries no seed; cluster entries use Medoid = -1 because CLIQUE has
// no medoid notion.
func (r *Result) Report() *obs.RunReport {
	rep := &obs.RunReport{
		Algorithm: "clique",
		Dataset: obs.DatasetInfo{
			Points: r.Stats.DatasetPoints,
			Dims:   r.Stats.DatasetDims,
		},
		Config: r.Config,
		Phases: []obs.PhaseReport{
			{Name: "histogram", Seconds: r.Stats.HistogramDuration.Seconds()},
			{Name: "search", Seconds: r.Stats.SearchDuration.Seconds()},
			{Name: "report", Seconds: r.Stats.ReportDuration.Seconds()},
		},
		Counters: r.Stats.Counters,
		Series:   r.Stats.Series,
		Levels:   r.Levels,
		TotalSeconds: (r.Stats.HistogramDuration + r.Stats.SearchDuration +
			r.Stats.ReportDuration).Seconds(),
	}
	if len(r.DenseBySubspaceDim) > 1 {
		// Drop the unused index 0 so the report reads naturally:
		// dense_by_subspace_dim[i] counts (i+1)-dimensional dense units.
		// Keep exactly Levels entries: the search may have probed one
		// level past the top that pruned to zero dense units, which
		// Levels does not count.
		rep.DenseBySubspaceDim = r.DenseBySubspaceDim[1:]
		if r.Levels >= 1 && len(rep.DenseBySubspaceDim) > r.Levels {
			rep.DenseBySubspaceDim = rep.DenseBySubspaceDim[:r.Levels]
		}
	}
	for i, cl := range r.Clusters {
		rep.Clusters = append(rep.Clusters, obs.ClusterReport{
			ID:         i,
			Size:       cl.Size,
			Medoid:     -1,
			Dimensions: cl.Dims,
		})
	}
	return rep
}
