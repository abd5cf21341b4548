// Package scenarios is the table-driven robustness workload suite: a
// fixed set of adversarial synthetic datasets — heavy uniform noise,
// arbitrarily oriented clusters, heavily imbalanced sizes,
// near-duplicate cluster pairs, high-dimensional sparse relevance —
// each run through a set of registry-routed algorithm cells. Every
// scenario×algorithm cell pins seeded quality floors (ARI/NMI/purity)
// and the deterministic work counters in a committed golden
// (golden/*.json), diffed with benchcmp-style thresholds by the
// scenario gate (`make scenario-gate`). A quality drop below a floor or
// a counter drift beyond the tolerance fails the gate; deliberate
// changes regenerate the goldens with
// `go test ./internal/scenarios -run '^TestScenarioGate$' -update`.
package scenarios

import (
	"context"
	"fmt"

	"proclus/internal/dataset"
	"proclus/internal/eval"
	"proclus/internal/obs"
	"proclus/internal/registry"
	"proclus/internal/synth"
)

// Cell is one algorithm run within a scenario. Label distinguishes
// multiple cells of the same algorithm (e.g. two PROCLUS
// configurations) and names the cell in goldens and gate failures.
type Cell struct {
	Label string
	Algo  string
	Cfg   registry.Config
}

// Scenario is one robustness workload: a seeded dataset generator plus
// the algorithm cells it is run through. Data must be deterministic —
// the gate's counter pins rely on it.
type Scenario struct {
	Name        string
	Description string
	Data        func() (*dataset.Dataset, error)
	Cells       []Cell
}

// Outcome is the measured result of one cell: external quality indices
// against the generator's ground-truth labels, and the run's work
// counters.
type Outcome struct {
	Quality  map[string]float64 `json:"quality"`
	Counters obs.Snapshot       `json:"counters"`
}

// Table returns the robustness suite. Shapes are sized so the whole
// suite stays within a CI-friendly budget while each scenario still
// stresses the failure mode it is named for.
func Table() []Scenario {
	return []Scenario{
		{
			Name:        "heavy_noise",
			Description: "40% uniform outliers: subspace structure must survive dominant noise",
			Data: func() (*dataset.Dataset, error) {
				ds, _, err := synth.Generate(synth.Config{
					N: 3000, Dims: 20, K: 4, FixedDims: 6,
					OutlierFraction: 0.4, MinSizeFraction: 0.15, Seed: 97,
				})
				return ds, err
			},
			Cells: []Cell{
				{Label: "proclus", Algo: "proclus", Cfg: registry.Config{K: 4, L: 6, Seed: 5}},
				{Label: "orclus", Algo: "orclus", Cfg: registry.Config{
					K: 4, L: 6, Seed: 5,
					Orclus: registry.OrclusParams{HandleOutliers: true},
				}},
				{Label: "kmedoids", Algo: "kmedoids", Cfg: registry.Config{K: 4, Seed: 5}},
			},
		},
		{
			Name:        "oriented",
			Description: "arbitrarily oriented correlated clusters: axis-parallel methods degrade, ORCLUS should not",
			Data: func() (*dataset.Dataset, error) {
				ds, _, err := synth.GenerateOriented(synth.OrientedConfig{
					N: 2000, Dims: 8, K: 3, L: 2, OutlierFraction: -1, Seed: 11,
				})
				return ds, err
			},
			Cells: []Cell{
				{Label: "orclus", Algo: "orclus", Cfg: registry.Config{K: 3, L: 2, Seed: 5}},
				{Label: "proclus", Algo: "proclus", Cfg: registry.Config{K: 3, L: 3, Seed: 5}},
				{Label: "kmedoids", Algo: "kmedoids", Cfg: registry.Config{K: 3, Seed: 5}},
			},
		},
		{
			Name:        "imbalanced",
			Description: "raw Exp(1) cluster sizes: tiny clusters must not be absorbed by giants",
			Data: func() (*dataset.Dataset, error) {
				ds, _, err := synth.Generate(synth.Config{
					N: 4000, Dims: 12, K: 5, FixedDims: 4,
					OutlierFraction: -1, Seed: 23,
				})
				return ds, err
			},
			Cells: []Cell{
				{Label: "proclus", Algo: "proclus", Cfg: registry.Config{K: 5, L: 4, Seed: 5}},
				{Label: "kmedoids", Algo: "kmedoids", Cfg: registry.Config{K: 5, Seed: 5}},
				{Label: "clique", Algo: "clique", Cfg: registry.Config{
					Clique: registry.CliqueParams{
						Tau: 0.02, MaxDims: 3, MDLPruning: true, ReportHighest: true,
					},
				}},
			},
		},
		{
			Name:        "near_duplicate",
			Description: "twin clusters sharing a subspace, anchors a few σ apart: must be split, not merged",
			Data: func() (*dataset.Dataset, error) {
				ds, _, err := synth.GenerateNearDuplicate(synth.NearDuplicateConfig{
					N: 2500, Dims: 10, Pairs: 2, SubspaceDims: 4,
					Separation: 6, OutlierFraction: -1, Seed: 41,
				})
				return ds, err
			},
			Cells: []Cell{
				{Label: "proclus", Algo: "proclus", Cfg: registry.Config{K: 4, L: 4, Seed: 5}},
				{Label: "kmedoids", Algo: "kmedoids", Cfg: registry.Config{K: 4, Seed: 5}},
			},
		},
		{
			Name:        "highdim_sparse",
			Description: "d=100 with 5 relevant dims per cluster: full-dimensional distances are noise-dominated",
			Data: func() (*dataset.Dataset, error) {
				ds, _, err := synth.Generate(synth.Config{
					N: 2000, Dims: 100, K: 3, FixedDims: 5,
					OutlierFraction: 0.05, MinSizeFraction: 0.15, Seed: 7,
				})
				return ds, err
			},
			Cells: []Cell{
				{Label: "proclus", Algo: "proclus", Cfg: registry.Config{K: 3, L: 5, Seed: 5}},
			},
		},
	}
}

// RunCell fits one cell on ds through the registry and scores it
// against the dataset's ground-truth labels. All cells fit in memory,
// so per-point assignments are always available.
func RunCell(ds *dataset.Dataset, c Cell) (Outcome, error) {
	m, err := registry.Fit(context.Background(), c.Algo, registry.Source{Dataset: ds}, c.Cfg)
	if err != nil {
		return Outcome{}, fmt.Errorf("cell %s: %w", c.Label, err)
	}
	as := m.Assignments()
	if as == nil {
		return Outcome{}, fmt.Errorf("cell %s: no assignments", c.Label)
	}
	out := Outcome{Quality: map[string]float64{}}
	if ari, err := eval.AdjustedRandIndex(ds.Labels(), as); err == nil {
		out.Quality["ari"] = ari
	}
	if nmi, err := eval.NormalizedMutualInfo(ds.Labels(), as); err == nil {
		out.Quality["nmi"] = nmi
	}
	cm, err := eval.NewConfusion(eval.LabelsFromDataset(ds), as, m.NumClusters(), ds.NumLabels())
	if err != nil {
		return Outcome{}, fmt.Errorf("cell %s: %w", c.Label, err)
	}
	out.Quality["purity"] = cm.Purity()
	out.Counters = m.Report().Counters
	return out, nil
}
