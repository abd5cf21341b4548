package core

// End-to-end benchmarks of a full PROCLUS run at different worker
// budgets, on the benchmark ledger's two in-memory PROCLUS shapes:
// case1, a scaled-down §4.1 input (20-dimensional space, 5 clusters in
// 7-dimensional subspaces), and highdim, the Figure 9 axis at d = 100
// (5 clusters in 5-dimensional subspaces). The restarts dominate the
// runtime and run concurrently, so the expected scaling on an unloaded
// multi-core machine is near-linear up to min(Workers, Restarts):
//
//	go test -run xxx -bench BenchmarkProclusRun -benchtime 5x ./internal/core/
//
// Because results are bit-identical for every worker count, the
// sub-benchmarks of one shape measure the same computation and differ
// only in schedule.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/synth"
)

func BenchmarkProclusRun(b *testing.B) {
	shapes := []struct {
		name string
		data synth.Config
		l    int
	}{
		{"case1", synth.Config{N: 8000, Dims: 20, K: 5, FixedDims: 7, MinSizeFraction: 0.1, Seed: 3}, 7},
		{"highdim", synth.Config{N: 5000, Dims: 100, K: 5, FixedDims: 5, MinSizeFraction: 0.1, Seed: 3}, 5},
	}
	for _, sh := range shapes {
		ds, _, err := synth.Generate(sh.data)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(ds, Config{K: 5, L: sh.l, Seed: 4, Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRunStream is a whole streamed PROCLUS fit over a FileSource
// on a 200,000-point file of the case1 shape, at one and two workers:
// the sample read, the hill climb on the sample and the two block
// passes of refinement, with the file in the page cache after the
// first fit.
//
//	go test -run xxx -bench BenchmarkRunStream -benchtime 5x ./internal/core/
func BenchmarkRunStream(b *testing.B) {
	ds, _, err := synth.Generate(synth.Config{N: 200000, Dims: 20, K: 5, FixedDims: 7, MinSizeFraction: 0.1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "case1.bin")
	if err := ds.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	src, err := dataset.OpenFileSource(path, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("case1/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunStream(context.Background(), src, Config{K: 5, L: 7, Seed: 4, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
