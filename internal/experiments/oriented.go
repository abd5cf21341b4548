package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"proclus/internal/core"
	"proclus/internal/eval"
	"proclus/internal/obs"
	"proclus/internal/orclus"
	"proclus/internal/synth"
)

// OrientedParams scales the generalized-projected-clustering experiment
// (the future-work direction of the paper's §5): axis-parallel PROCLUS
// vs the oriented-subspace ORCLUS extension on clusters correlated along
// arbitrary directions.
type OrientedParams struct {
	// N is the dataset size. Default 5,000.
	N int
	// Dims is the space dimensionality. Default 10.
	Dims int
	// K is the number of clusters. Default 3.
	K int
	// L is the per-cluster subspace dimensionality. Default 2.
	L    int
	Seed uint64
	// Workers bounds the goroutines the PROCLUS run may use; values
	// below 1 select GOMAXPROCS. The ORCLUS baseline is serial.
	Workers int
	// Observer, when non-nil, receives every run's structured events.
	Observer obs.Observer
}

func (p OrientedParams) withDefaults() OrientedParams {
	if p.N == 0 {
		p.N = 5000
	}
	if p.Dims == 0 {
		p.Dims = 10
	}
	if p.K == 0 {
		p.K = 3
	}
	if p.L == 0 {
		p.L = 2
	}
	return p
}

// OrientedRow is one algorithm's outcome on the oriented workload.
type OrientedRow struct {
	Algorithm string
	ARI       float64
	NMI       float64
	Elapsed   time.Duration
}

// OrientedResult is the data behind the oriented experiment.
type OrientedResult struct {
	Rows []OrientedRow
}

// WriteCSV emits one row per algorithm.
func (o *OrientedResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rows := [][]string{{"algorithm", "ari", "nmi", "seconds"}}
	for _, r := range o.Rows {
		rows = append(rows, []string{
			r.Algorithm,
			strconv.FormatFloat(r.ARI, 'f', 4, 64),
			strconv.FormatFloat(r.NMI, 'f', 4, 64),
			strconv.FormatFloat(r.Elapsed.Seconds(), 'f', 6, 64),
		})
	}
	return writeAll(cw, rows)
}

// Oriented runs the generalized-clustering experiment.
func Oriented(p OrientedParams) (*OrientedResult, *Report, error) {
	p = p.withDefaults()
	ds, _, err := synth.GenerateOriented(synth.OrientedConfig{
		N: p.N, Dims: p.Dims, K: p.K, L: p.L, OutlierFraction: -1, Seed: p.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	labels := eval.LabelsFromDataset(ds)
	out := &OrientedResult{}

	score := func(name string, assignments []int, elapsed time.Duration) error {
		ari, err := eval.AdjustedRandIndex(labels, assignments)
		if err != nil {
			return err
		}
		nmi, err := eval.NormalizedMutualInfo(labels, assignments)
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, OrientedRow{
			Algorithm: name, ARI: ari, NMI: nmi, Elapsed: elapsed,
		})
		return nil
	}

	start := time.Now()
	pr, err := core.Run(ds, core.Config{
		K: p.K, L: p.L, Seed: p.Seed + 1, Workers: p.Workers,
		Observer: p.Observer,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := score("proclus", pr.Assignments, time.Since(start)); err != nil {
		return nil, nil, err
	}

	start = time.Now()
	oc, err := orclus.Run(ds, orclus.Config{K: p.K, L: p.L, Seed: p.Seed + 1})
	if err != nil {
		return nil, nil, err
	}
	if err := score("orclus", oc.Assignments, time.Since(start)); err != nil {
		return nil, nil, err
	}

	r := &Report{
		ID: "oriented",
		Title: fmt.Sprintf("generalized projected clustering (§5 future work): %d oriented clusters, l=%d, d=%d",
			p.K, p.L, p.Dims),
	}
	r.addf("%10s %8s %8s %12s", "algorithm", "ARI", "NMI", "time")
	for _, row := range out.Rows {
		r.addf("%10s %8.3f %8.3f %12s",
			row.Algorithm, row.ARI, row.NMI, row.Elapsed.Round(time.Millisecond))
	}
	r.Timing.Add(pr.Stats)
	return out, r, nil
}
