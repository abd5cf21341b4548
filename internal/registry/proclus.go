package registry

import (
	"context"
	"math"

	"proclus/internal/core"
	"proclus/internal/dist"
	"proclus/internal/obs"
)

func init() { Register(proclusAlgo{}) }

// proclusAlgo adapts the PROCLUS core. It supports the full shared
// surface: streaming, telemetry, and parallelism.
type proclusAlgo struct{}

func (proclusAlgo) Name() string { return "proclus" }

func (proclusAlgo) Caps() Caps {
	return Caps{
		TakesK: true, TakesL: true,
		Stream:  true,
		Metrics: true, Series: true, Workers: true,
	}
}

func (proclusAlgo) Fit(ctx context.Context, src Source, cfg Config) (Model, error) {
	ccfg := core.Config{
		K: cfg.K, L: cfg.L, Seed: cfg.Seed, Workers: cfg.Workers,
		Observer: cfg.Observer, Metrics: cfg.Metrics, Series: cfg.Series,
	}
	var (
		res *core.Result
		err error
	)
	if src.Stream != nil {
		res, err = core.RunStream(ctx, src.Stream, ccfg)
	} else {
		res, err = core.RunContext(ctx, src.Dataset, ccfg)
	}
	if err != nil {
		return nil, err
	}
	return &proclusModel{res: res}, nil
}

type proclusModel struct {
	res *core.Result
}

func (m *proclusModel) Algorithm() string      { return "proclus" }
func (m *proclusModel) NumClusters() int       { return len(m.res.Clusters) }
func (m *proclusModel) Assignments() []int     { return m.res.Assignments }
func (m *proclusModel) Report() *obs.RunReport { return m.res.Report() }
func (m *proclusModel) Unwrap() any            { return m.res }

// Assign places a fresh point with the cluster of smallest segmental
// distance to its centroid over the cluster's own dimension set — the
// refinement-phase assignment rule, without the outlier deltas (a
// fresh point always gets its nearest cluster). Ties break toward the
// lower cluster index.
func (m *proclusModel) Assign(p []float64) int {
	best, bestD := -1, math.Inf(1)
	for i, cl := range m.res.Clusters {
		if len(p) != len(cl.Centroid) {
			return -1
		}
		d := dist.Segmental(p, cl.Centroid, cl.Dimensions)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
