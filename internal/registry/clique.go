package registry

import (
	"context"
	"sync"

	"proclus/internal/clique"
	"proclus/internal/dataset"
	"proclus/internal/obs"
)

func init() { Register(cliqueAlgo{}) }

// cliqueAlgo adapts CLIQUE. Density-based: no K/L, no medoid distance
// tiers; streaming, telemetry and parallel passes are supported.
type cliqueAlgo struct{}

func (cliqueAlgo) Name() string { return "clique" }

func (cliqueAlgo) Caps() Caps {
	return Caps{
		Stream: true, Series: true, Workers: true,
		CliqueParams: true,
	}
}

func (cliqueAlgo) Fit(ctx context.Context, src Source, cfg Config) (Model, error) {
	ccfg := clique.Config{
		Xi:               cfg.Clique.Xi,
		Tau:              cfg.Clique.Tau,
		MaxDims:          cfg.Clique.MaxDims,
		FixedDims:        cfg.Clique.FixedDims,
		MaxUnitsPerLevel: cfg.Clique.MaxUnitsPerLevel,
		ReportMaximal:    cfg.Clique.ReportMaximal,
		ReportHighest:    cfg.Clique.ReportHighest,
		MDLPruning:       cfg.Clique.MDLPruning,
		Workers:          cfg.Workers,
		Observer:         cfg.Observer,
		Series:           cfg.Series,
	}
	var (
		res *clique.Result
		err error
	)
	if src.Stream != nil {
		res, err = clique.RunStream(ctx, src.Stream, ccfg)
	} else {
		res, err = clique.Run(src.Dataset, ccfg)
	}
	if err != nil {
		return nil, err
	}
	assigner, err := clique.NewPointAssigner(res)
	if err != nil {
		return nil, err
	}
	return &cliqueModel{res: res, ds: src.Dataset, assigner: assigner}, nil
}

type cliqueModel struct {
	res *clique.Result
	// ds is the fitted in-memory dataset, nil for streamed fits.
	ds       *dataset.Dataset
	assigner *clique.PointAssigner

	once sync.Once
	view []int
}

func (m *cliqueModel) Algorithm() string { return "clique" }
func (m *cliqueModel) NumClusters() int  { return len(m.res.Clusters) }

// Assignments returns the partition view of the overlapping CLIQUE
// output (PartitionView's preference: higher subspace dimensionality,
// then larger cluster, then lower index), computed lazily on first use.
// Streamed fits hold no dataset, so Assignments is nil there — quality
// evaluation over a streamed CLIQUE fit needs the membership pass the
// CLI documents.
func (m *cliqueModel) Assignments() []int {
	m.once.Do(func() {
		if m.ds != nil {
			m.view = clique.PartitionView(m.ds, m.res)
		}
	})
	return m.view
}

// Assign locates the point in the fitted grid and returns the
// preferred covering cluster, or -1 when no dense unit contains it.
// The rule matches PartitionView entry for entry on the fitted points.
func (m *cliqueModel) Assign(p []float64) int { return m.assigner.Assign(p) }

func (m *cliqueModel) Report() *obs.RunReport { return m.res.Report() }
func (m *cliqueModel) Unwrap() any            { return m.res }
