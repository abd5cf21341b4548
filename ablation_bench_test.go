// Ablation benchmarks for the design choices DESIGN.md calls out that
// Config exposes: the restart count and serial vs parallel execution,
// plus PROCLUS against ORCLUS on oriented clusters. Each reports both
// time and — where meaningful — recovered quality via custom metrics
// (exact dimension matches, purity×1000) so the quality impact of each
// choice is visible next to its cost. The initialization, metric and
// refinement ablations have no Config switch; they run through the
// reference in internal/core (BenchmarkAblationInit, Metric and
// Refinement there).
package proclus_test

import (
	"fmt"
	"testing"

	"proclus"
)

// ablationWorkload is a Case-2-style input (varying cluster
// dimensionality), the setting where initialization and restarts matter
// most.
func ablationWorkload(b *testing.B) (*proclus.Dataset, *proclus.GroundTruth) {
	b.Helper()
	ds, gt, err := proclus.Generate(proclus.GeneratorConfig{
		N: 8000, Dims: 20, K: 5, DimCounts: []int{2, 2, 3, 6, 7},
		MinSizeFraction: 0.1, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds, gt
}

func scoreRun(b *testing.B, ds *proclus.Dataset, gt *proclus.GroundTruth, res *proclus.Result) (exact int, purity float64) {
	b.Helper()
	cm, err := proclus.NewConfusion(ds.Labels(), res.Assignments, len(res.Clusters), len(gt.Sizes))
	if err != nil {
		b.Fatal(err)
	}
	match := cm.Match()
	for i, cl := range res.Clusters {
		if match[i] >= 0 && proclus.MatchDimensions(cl.Dimensions, gt.Dimensions[match[i]]).Exact {
			exact++
		}
	}
	return exact, cm.Purity()
}

func benchConfigQuality(b *testing.B, cfg proclus.Config) {
	ds, gt := ablationWorkload(b)
	var exactSum int
	var puritySum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		res, err := proclus.Run(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
		exact, purity := scoreRun(b, ds, gt, res)
		exactSum += exact
		puritySum += purity
	}
	b.ReportMetric(float64(exactSum)/float64(b.N), "exactdims/5")
	b.ReportMetric(1000*puritySum/float64(b.N), "purity*1e3")
}

// BenchmarkAblationRestarts compares a single hill climb against the
// default multi-restart search.
func BenchmarkAblationRestarts(b *testing.B) {
	for _, restarts := range []int{1, 5} {
		b.Run(fmt.Sprintf("restarts=%d", restarts), func(b *testing.B) {
			benchConfigQuality(b, proclus.Config{K: 5, L: 4, Restarts: restarts})
		})
	}
}

// BenchmarkOrientedProclusVsOrclus compares axis-parallel PROCLUS with
// the generalized ORCLUS extension on clusters correlated along
// arbitrary directions — the future-work scenario of the paper's
// conclusions. The ari*1e3 metric shows the recovery gap.
func BenchmarkOrientedProclusVsOrclus(b *testing.B) {
	ds, _, err := proclus.GenerateOriented(proclus.OrientedConfig{
		N: 3000, Dims: 10, K: 3, L: 2, OutlierFraction: -1, Seed: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("proclus", func(b *testing.B) {
		var ariSum float64
		for i := 0; i < b.N; i++ {
			res, err := proclus.Run(ds, proclus.Config{K: 3, L: 2, Seed: uint64(i) + 1})
			if err != nil {
				b.Fatal(err)
			}
			ari, err := proclus.AdjustedRandIndex(ds.Labels(), res.Assignments)
			if err != nil {
				b.Fatal(err)
			}
			ariSum += ari
		}
		b.ReportMetric(1000*ariSum/float64(b.N), "ari*1e3")
	})
	b.Run("orclus", func(b *testing.B) {
		var ariSum float64
		for i := 0; i < b.N; i++ {
			res, err := proclus.RunORCLUS(ds, proclus.ORCLUSConfig{K: 3, L: 2, Seed: uint64(i) + 1})
			if err != nil {
				b.Fatal(err)
			}
			ari, err := proclus.AdjustedRandIndex(ds.Labels(), res.Assignments)
			if err != nil {
				b.Fatal(err)
			}
			ariSum += ari
		}
		b.ReportMetric(1000*ariSum/float64(b.N), "ari*1e3")
	})
}

// BenchmarkAblationWorkers measures assignment-phase parallelism. The
// output is identical across worker counts; only wall-clock changes.
func BenchmarkAblationWorkers(b *testing.B) {
	ds, _, err := proclus.Generate(proclus.GeneratorConfig{
		N: 30000, Dims: 20, K: 5, FixedDims: 5, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := proclus.Run(ds, proclus.Config{K: 5, L: 5, Seed: 9, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
