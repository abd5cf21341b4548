package experiments

import (
	"fmt"
	"time"

	"proclus/internal/clique"
	"proclus/internal/core"
	"proclus/internal/obs"
	"proclus/internal/synth"
)

// TimingPoint is one point of a scalability series.
type TimingPoint struct {
	// X is the swept parameter value (N, l or d).
	X int
	// Proclus is PROCLUS's wall-clock time.
	Proclus time.Duration
	// Clique is CLIQUE's wall-clock time (zero when not run).
	Clique time.Duration
	// CliqueErr records a lattice-guard abort, if any.
	CliqueErr string
}

// TimingSeries is the data behind Figures 7–9.
type TimingSeries struct {
	// Param names the swept parameter.
	Param  string
	Points []TimingPoint
}

func (ts *TimingSeries) report(id, title string) *Report {
	r := &Report{ID: id, Title: title}
	r.addf("%12s %15s %15s %10s", ts.Param, "PROCLUS", "CLIQUE", "speedup")
	for _, p := range ts.Points {
		cl := "-"
		speedup := "-"
		if p.CliqueErr != "" {
			cl = "ERROR"
		} else if p.Clique > 0 {
			cl = p.Clique.Round(time.Millisecond).String()
			if p.Proclus > 0 {
				speedup = fmt.Sprintf("%.1fx", float64(p.Clique)/float64(p.Proclus))
			}
		}
		r.addf("%12d %15s %15s %10s", p.X, p.Proclus.Round(time.Millisecond).String(), cl, speedup)
	}
	return r
}

// Figure7Params scales the "runtime vs number of points" experiment.
// Paper: N ∈ {100k..500k}, d = 20, k = 5, 5-dimensional clusters,
// CLIQUE at ξ = 10, τ = 0.5%.
type Figure7Params struct {
	// Ns are the dataset sizes to sweep. Default {10k, 20k, 30k, 40k,
	// 50k} (the paper's values divided by 10).
	Ns []int
	// Dims is the space dimensionality. Default 20.
	Dims int
	// WithClique controls whether the CLIQUE series is measured too.
	// Default true (set false for quick PROCLUS-only runs).
	WithClique bool
	// CliqueTau is CLIQUE's density threshold. Default 0.005.
	CliqueTau float64
	Seed      uint64
	// Workers bounds the goroutines each PROCLUS and CLIQUE run may
	// use; values below 1 select GOMAXPROCS. Results are identical for
	// any value, so the sweep measures the same clusterings at every
	// worker count.
	Workers int
	// Stream, when set, runs every PROCLUS and CLIQUE measurement out of
	// core: each generated input is spilled to a temporary binary file
	// and clustered through the streamed engines over a block-buffered
	// FileSource, so the sweep times the bounded-memory path. The
	// measured durations then include block I/O, which is the point.
	Stream bool
	// BlockPoints sets the streamed block granularity in points; zero
	// selects dataset.DefaultBlockPoints. Ignored unless Stream is set.
	BlockPoints int
	// Observer, when non-nil, receives every run's structured events.
	Observer obs.Observer
}

func (p Figure7Params) withDefaults() Figure7Params {
	if p.Ns == nil {
		p.Ns = []int{10000, 20000, 30000, 40000, 50000}
	}
	if p.Dims == 0 {
		p.Dims = 20
	}
	if p.CliqueTau == 0 {
		p.CliqueTau = 0.005
	}
	return p
}

// Figure7 reproduces Figure 7: running time versus the number of input
// points, PROCLUS vs CLIQUE. Both should scale linearly with PROCLUS
// faster by a large factor.
func Figure7(p Figure7Params) (*TimingSeries, *Report, error) {
	p = p.withDefaults()
	ts := &TimingSeries{Param: "points"}
	var timing Timing
	for _, n := range p.Ns {
		ds, _, err := synth.Generate(synth.Config{
			N: n, Dims: p.Dims, K: caseK, FixedDims: 5, Seed: p.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		pt := TimingPoint{X: n}
		pcfg := core.Config{
			K: caseK, L: 5, Seed: p.Seed + 1, Workers: p.Workers, Observer: p.Observer,
		}
		start := time.Now()
		var res *core.Result
		if p.Stream {
			res, err = streamProclus(ds, pcfg, p.BlockPoints)
		} else {
			res, err = core.Run(ds, pcfg)
		}
		if err != nil {
			return nil, nil, err
		}
		timing.Add(res.Stats)
		pt.Proclus = time.Since(start)
		if p.WithClique {
			ccfg := clique.Config{
				Xi: 10, Tau: p.CliqueTau, Workers: p.Workers, Observer: p.Observer,
			}
			start = time.Now()
			var cres *clique.Result
			if p.Stream {
				cres, err = streamClique(ds, ccfg, p.BlockPoints)
			} else {
				cres, err = clique.Run(ds, ccfg)
			}
			if err != nil {
				pt.CliqueErr = err.Error()
			} else {
				timing.AddCounters(cres.Stats.Counters)
			}
			pt.Clique = time.Since(start)
		}
		ts.Points = append(ts.Points, pt)
	}
	rep := ts.report("fig7", "scalability with the number of points (PROCLUS vs CLIQUE)")
	rep.Timing = timing
	return ts, rep, nil
}

// Figure8Params scales the "runtime vs average cluster dimensionality"
// experiment. Paper: N = 100k, d = 20, l ∈ {4..8}; CLIQUE at τ = 0.5%
// for l ≤ 6 and 0.1% for l ≥ 7 (lower density in higher-dimensional
// clusters).
type Figure8Params struct {
	// Ls are the cluster dimensionalities to sweep. Default {4,5,6,7,8}.
	Ls []int
	// N is the dataset size. Default 10,000.
	N int
	// Dims is the space dimensionality. Default 20... reduced to 12 by
	// default so the high-l CLIQUE lattices stay within test budgets.
	Dims int
	// WithClique controls whether the CLIQUE series is measured.
	WithClique bool
	// TauLow is CLIQUE's threshold for small l; TauHigh (a smaller
	// density) applies from TauSwitch upward, following the paper.
	TauLow, TauHigh float64
	TauSwitch       int
	Seed            uint64
	// Workers bounds the goroutines each PROCLUS and CLIQUE run may
	// use; values below 1 select GOMAXPROCS.
	Workers int
	// Observer, when non-nil, receives every run's structured events.
	Observer obs.Observer
}

func (p Figure8Params) withDefaults() Figure8Params {
	if p.Ls == nil {
		p.Ls = []int{4, 5, 6, 7, 8}
	}
	if p.N == 0 {
		p.N = 10000
	}
	if p.Dims == 0 {
		p.Dims = 12
	}
	if p.TauLow == 0 {
		p.TauLow = 0.005
	}
	if p.TauHigh == 0 {
		p.TauHigh = 0.002
	}
	if p.TauSwitch == 0 {
		p.TauSwitch = 7
	}
	return p
}

// Figure8 reproduces Figure 8: running time versus the average cluster
// dimensionality l. CLIQUE grows superlinearly (its dense-unit lattice
// deepens with l) while PROCLUS stays nearly flat.
func Figure8(p Figure8Params) (*TimingSeries, *Report, error) {
	p = p.withDefaults()
	ts := &TimingSeries{Param: "l"}
	var timing Timing
	for _, l := range p.Ls {
		ds, _, err := synth.Generate(synth.Config{
			N: p.N, Dims: p.Dims, K: caseK, FixedDims: l, Seed: p.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		pt := TimingPoint{X: l}
		start := time.Now()
		res, err := core.Run(ds, core.Config{
			K: caseK, L: l, Seed: p.Seed + 1, Workers: p.Workers, Observer: p.Observer,
		})
		if err != nil {
			return nil, nil, err
		}
		timing.Add(res.Stats)
		pt.Proclus = time.Since(start)
		if p.WithClique {
			tau := p.TauLow
			if l >= p.TauSwitch {
				tau = p.TauHigh
			}
			start = time.Now()
			cres, err := clique.Run(ds, clique.Config{
				Xi: 10, Tau: tau, Workers: p.Workers, Observer: p.Observer,
			})
			if err != nil {
				pt.CliqueErr = err.Error()
			} else {
				timing.AddCounters(cres.Stats.Counters)
			}
			pt.Clique = time.Since(start)
		}
		ts.Points = append(ts.Points, pt)
	}
	rep := ts.report("fig8", "scalability with average cluster dimensionality (PROCLUS vs CLIQUE)")
	rep.Timing = timing
	return ts, rep, nil
}

// Figure9Params scales the "runtime vs space dimensionality" experiment.
// Paper: N = 100k, k = 5, 5-dimensional clusters, d ∈ {20..50},
// PROCLUS only.
type Figure9Params struct {
	// Ds are the space dimensionalities to sweep. Default
	// {20, 25, 30, 35, 40, 45, 50} (the paper's values).
	Ds []int
	// N is the dataset size. Default 10,000.
	N int
	// Repeats averages each point over this many generated inputs (the
	// paper averages every running time over three similar input files;
	// PROCLUS's trial count varies with the input, so averaging smooths
	// the curve). Default 3.
	Repeats int
	Seed    uint64
	// Workers bounds the goroutines each PROCLUS run may use; values
	// below 1 select GOMAXPROCS.
	Workers int
	// Observer, when non-nil, receives every run's structured events.
	Observer obs.Observer
}

func (p Figure9Params) withDefaults() Figure9Params {
	if p.Ds == nil {
		p.Ds = []int{20, 25, 30, 35, 40, 45, 50}
	}
	if p.N == 0 {
		p.N = 10000
	}
	if p.Repeats == 0 {
		p.Repeats = 3
	}
	return p
}

// Figure9 reproduces Figure 9: PROCLUS's running time versus the
// dimensionality of the whole space, expected to grow linearly.
func Figure9(p Figure9Params) (*TimingSeries, *Report, error) {
	p = p.withDefaults()
	ts := &TimingSeries{Param: "dims"}
	var timing Timing
	for _, d := range p.Ds {
		var total time.Duration
		for rep := 0; rep < p.Repeats; rep++ {
			ds, _, err := synth.Generate(synth.Config{
				N: p.N, Dims: d, K: caseK, FixedDims: 5, Seed: p.Seed + uint64(rep)*101,
			})
			if err != nil {
				return nil, nil, err
			}
			start := time.Now()
			res, err := core.Run(ds, core.Config{
				K: caseK, L: 5, Seed: p.Seed + 1 + uint64(rep), Workers: p.Workers,
				Observer: p.Observer,
			})
			if err != nil {
				return nil, nil, err
			}
			timing.Add(res.Stats)
			total += time.Since(start)
		}
		ts.Points = append(ts.Points, TimingPoint{X: d, Proclus: total / time.Duration(p.Repeats)})
	}
	rep := ts.report("fig9", "scalability with the dimensionality of the space (PROCLUS only)")
	rep.Timing = timing
	return ts, rep, nil
}
