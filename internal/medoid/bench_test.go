package medoid

import (
	"testing"

	"proclus/internal/synth"
)

// BenchmarkRun fits the shape of the benchmark ledger's baselines
// workload (N=3000, d=12, five 4-dimensional clusters) with K=5. The
// descent is serial, so it runs at one worker.
func BenchmarkRun(b *testing.B) {
	ds, _, err := synth.Generate(synth.Config{
		N: 3000, Dims: 12, K: 5, FixedDims: 4, MinSizeFraction: 0.1, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ds, Config{K: 5, Seed: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
