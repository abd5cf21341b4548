package orclus

import (
	"fmt"
	"runtime"
	"testing"

	"proclus/internal/synth"
)

// BenchmarkRun fits the shape of the benchmark ledger's baselines
// workload (N=3000, d=12, five 4-dimensional clusters) with k=5, l=4,
// at one worker and at GOMAXPROCS.
func BenchmarkRun(b *testing.B) {
	ds, _, err := synth.Generate(synth.Config{
		N: 3000, Dims: 12, K: 5, FixedDims: 4, MinSizeFraction: 0.1, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(ds, Config{K: 5, L: 4, Seed: 4, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
