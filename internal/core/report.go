package core

import "proclus/internal/obs"

// ConfigReport is the JSON-safe echo of an effective Config (defaults
// applied), embedded in run reports so any run can be replayed exactly
// from its report. It deliberately excludes the Observer, which is a
// runtime attachment rather than a parameter of the computation.
type ConfigReport struct {
	K             int     `json:"k"`
	L             int     `json:"l"`
	SampleFactor  int     `json:"sample_factor"`
	MedoidFactor  int     `json:"medoid_factor"`
	Restarts      int     `json:"restarts"`
	MinDeviation  float64 `json:"min_deviation"`
	MaxNoImprove  int     `json:"max_no_improve"`
	MaxIterations int     `json:"max_iterations"`
	Seed          uint64  `json:"seed"`
	Workers       int     `json:"workers"`
	// Stream and BlockPoints echo the out-of-core execution parameters
	// when the run came through RunStream; both stay zero (and absent
	// from reports) for in-memory runs.
	Stream      bool `json:"stream,omitempty"`
	BlockPoints int  `json:"block_points,omitempty"`
}

// reportConfig builds the JSON-safe echo of cfg.
func (cfg Config) reportConfig() ConfigReport {
	return ConfigReport{
		K:             cfg.K,
		L:             cfg.L,
		SampleFactor:  cfg.SampleFactor,
		MedoidFactor:  cfg.MedoidFactor,
		Restarts:      cfg.Restarts,
		MinDeviation:  cfg.MinDeviation,
		MaxNoImprove:  cfg.MaxNoImprove,
		MaxIterations: cfg.MaxIterations,
		Seed:          cfg.Seed,
		Workers:       cfg.Workers,
	}
}

// Report assembles the machine-readable run report: effective config
// and seed, per-phase and per-restart timings, hot-path counters, the
// objective trace and the final cluster summary. CLIs write it via the
// -report flag; library users can marshal it with RunReport.WriteJSON.
func (r *Result) Report() *obs.RunReport {
	rep := &obs.RunReport{
		Algorithm: "proclus",
		Dataset: obs.DatasetInfo{
			Points: r.Stats.DatasetPoints,
			Dims:   r.Stats.DatasetDims,
		},
		Seed:   r.Seed,
		Config: r.Config,
		Phases: []obs.PhaseReport{
			{Name: "initialize", Seconds: r.Stats.InitDuration.Seconds()},
			{Name: "iterate", Seconds: r.Stats.IterateDuration.Seconds()},
			{Name: "refine", Seconds: r.Stats.RefineDuration.Seconds()},
		},
		Counters:       r.Stats.Counters,
		Series:         r.Stats.Series,
		ObjectiveTrace: r.Stats.ObjectiveTrace,
		Objective:      r.Objective,
		Iterations:     r.Iterations,
		Outliers:       r.NumOutliers(),
		TotalSeconds: (r.Stats.InitDuration + r.Stats.IterateDuration +
			r.Stats.RefineDuration).Seconds(),
	}
	for i, rs := range r.Stats.Restarts {
		rep.Restarts = append(rep.Restarts, obs.RestartReport{
			Restart:       i + 1,
			Iterations:    rs.Iterations,
			BestObjective: rs.BestObjective,
			Seconds:       rs.Duration.Seconds(),
		})
	}
	for i, cl := range r.Clusters {
		rep.Clusters = append(rep.Clusters, obs.ClusterReport{
			ID:         i,
			Size:       len(cl.Members),
			Medoid:     cl.Medoid,
			Dimensions: cl.Dimensions,
		})
	}
	return rep
}
