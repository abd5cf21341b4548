package experiments

import (
	"fmt"

	"proclus/internal/core"
	"proclus/internal/eval"
	"proclus/internal/obs"
	"proclus/internal/synth"
)

// LSweepParams scales the l-selection experiment motivated by §4.3 of
// the paper ("it is easy to simply run the algorithm a few times and
// try different values for l"): sweep l over a range on data with a
// known true dimensionality and check where the objective elbow lands.
type LSweepParams struct {
	// N is the dataset size. Default 10,000.
	N int
	// Dims is the space dimensionality. Default 20.
	Dims int
	// TrueL is the generating cluster dimensionality. Default 5.
	TrueL int
	// MinL and MaxL bound the sweep. Defaults 2 and TrueL+4.
	MinL, MaxL int
	Seed       uint64
	// Workers bounds the goroutines each PROCLUS run may use; values
	// below 1 select GOMAXPROCS.
	Workers int
	// Observer, when non-nil, receives every run's structured events.
	Observer obs.Observer
}

func (p LSweepParams) withDefaults() LSweepParams {
	if p.N == 0 {
		p.N = 10000
	}
	if p.Dims == 0 {
		p.Dims = 20
	}
	if p.TrueL == 0 {
		p.TrueL = 5
	}
	if p.MinL == 0 {
		p.MinL = 2
	}
	if p.MaxL == 0 {
		p.MaxL = p.TrueL + 4
	}
	return p
}

// LSweepResult is the data behind the l-selection experiment.
type LSweepResult struct {
	// TrueL is the generating dimensionality.
	TrueL int
	// Points holds the sweep outcomes, annotated with recovery purity.
	Points []LSweepRow
	// Suggested is the elbow SuggestL picked.
	Suggested int
}

// LSweepRow is one sweep point plus its recovery quality.
type LSweepRow struct {
	L         int
	Objective float64
	Outliers  int
	Purity    float64
}

// LSweep runs the l-selection experiment.
func LSweep(p LSweepParams) (*LSweepResult, *Report, error) {
	p = p.withDefaults()
	ds, _, err := synth.Generate(synth.Config{
		N: p.N, Dims: p.Dims, K: caseK, FixedDims: p.TrueL,
		MinSizeFraction: caseMinShare, Seed: p.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	points, err := core.SweepL(ds, core.Config{
		K: caseK, Seed: p.Seed + 1, Workers: p.Workers,
		Observer: p.Observer,
	}, p.MinL, p.MaxL)
	if err != nil {
		return nil, nil, err
	}
	out := &LSweepResult{TrueL: p.TrueL}
	labels := eval.LabelsFromDataset(ds)
	for _, pt := range points {
		cm, err := eval.NewConfusion(labels, pt.Result.Assignments, len(pt.Result.Clusters), caseK)
		if err != nil {
			return nil, nil, err
		}
		out.Points = append(out.Points, LSweepRow{
			L:         pt.L,
			Objective: pt.Objective,
			Outliers:  pt.Outliers,
			Purity:    cm.Purity(),
		})
	}
	out.Suggested, err = core.SuggestL(points)
	if err != nil {
		return nil, nil, err
	}

	r := &Report{
		ID: "lsweep",
		Title: fmt.Sprintf("choosing l by sweep (§4.3): true cluster dimensionality %d in %d dims",
			p.TrueL, p.Dims),
	}
	r.addf("%6s %12s %10s %10s", "l", "objective", "outliers", "purity")
	for _, row := range out.Points {
		marker := ""
		if row.L == out.Suggested {
			marker = "  ← suggested"
		}
		r.addf("%6d %12.4f %10d %10.3f%s", row.L, row.Objective, row.Outliers, row.Purity, marker)
	}
	r.addf("")
	r.addf("true dimensionality: %d   suggested: %d", out.TrueL, out.Suggested)
	for _, pt := range points {
		r.Timing.Add(pt.Result.Stats)
	}
	return out, r, nil
}
