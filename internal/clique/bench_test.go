package clique

import (
	"fmt"
	"runtime"
	"testing"

	"proclus/internal/synth"
)

// BenchmarkRun times a whole CLIQUE fit on the benchmark ledger's
// baselines shape (N = 3000, d = 12, five 4-dimensional clusters) at
// τ = 0.01, at one worker and at GOMAXPROCS. Run with -benchmem to see
// the allocations per fit.
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
				if _, err := Run(ds, Config{Tau: 0.01, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
