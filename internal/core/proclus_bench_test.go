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

// ledgerShapes are the benchmark ledger's two in-memory PROCLUS
// shapes, each with its k = 5 and its l.
var ledgerShapes = []struct {
	name string
	data synth.Config
	l    int
}{
	{"case1", synth.Config{N: 8000, Dims: 20, K: 5, FixedDims: 7, MinSizeFraction: 0.1, Seed: 3}, 7},
	{"highdim", synth.Config{N: 5000, Dims: 100, K: 5, FixedDims: 5, MinSizeFraction: 0.1, Seed: 3}, 5},
}

func BenchmarkProclusRun(b *testing.B) {
	for _, sh := range ledgerShapes {
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
// on a 200,000-point file of the case1 shape, at one, two and four
// workers: the sample read, the hill climb on the sample and the two
// block passes of refinement, with the file in the page cache after
// the first fit.
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
	for _, workers := range []int{1, 2, 4} {
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

// BenchmarkZRow measures zRowInto, the FindDimensions kernel the hill
// climb runs on every Z-ring miss, over a 1,000-point group at d = 20
// and d = 100, with its buffers built once. Run with -benchmem: the
// allocation column must stay at zero.
//
//	go test -run xxx -bench BenchmarkZRow -benchmem ./internal/core/
func BenchmarkZRow(b *testing.B) {
	for _, d := range []int{20, 100} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			ds, _, err := synth.Generate(synth.Config{N: 2000, Dims: d, K: 5, FixedDims: 5, MinSizeFraction: 0.1, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			r := newRunner(ds, Config{K: 5, L: 5, Workers: 1})
			group := make([]int, 1000)
			for i := range group {
				group[i] = 2 * i
			}
			x, z := make([]float64, d), make([]float64, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.zRowInto(1, group, x, z)
			}
		})
	}
}

// BenchmarkCandidateTable measures building the hill climb's candidate
// table on the benchmark ledger's highdim shape (N = 5,000, d = 100,
// C = B·k = 50 candidates) at one worker: the candidate-pair distances,
// their sort, and the rank fill over every point.
//
//	go test -run xxx -bench BenchmarkCandidateTable -benchmem ./internal/core/
func BenchmarkCandidateTable(b *testing.B) {
	ds, _, err := synth.Generate(synth.Config{N: 5000, Dims: 100, K: 5, FixedDims: 5, MinSizeFraction: 0.1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	r := newRunner(ds, Config{K: 5, L: 5, Workers: 1})
	cands := make([]int, 50)
	for i := range cands {
		cands[i] = 97 * i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.newCandidateTable(cands, 1)
	}
}

// BenchmarkLocality measures the locality scan, the part of a Z-ring
// miss that reads the candidate table, on the benchmark ledger's case1
// and highdim shapes: the table holds initialize's candidates, each
// candidate's radius δ is its distance to its fourth-nearest other
// candidate, and one op scans every candidate's locality once into a
// reused list. Run with -benchmem: the allocation column must stay at
// zero.
//
//	go test -run xxx -bench BenchmarkLocality -benchmem ./internal/core/
func BenchmarkLocality(b *testing.B) {
	for _, sh := range ledgerShapes {
		b.Run(sh.name, func(b *testing.B) {
			ds, _, err := synth.Generate(sh.data)
			if err != nil {
				b.Fatal(err)
			}
			r := newRunner(ds, Config{K: 5, L: sh.l, Seed: 4, Workers: 1})
			cands, err := r.initialize()
			if err != nil {
				b.Fatal(err)
			}
			tab := r.newCandidateTable(cands, 1)
			deltas := make([]float64, tab.c)
			for a := range deltas {
				deltas[a] = tab.row(a)[3]
			}
			lst := make([]int, 0, tab.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for a, delta := range deltas {
					lst = tab.locality(a, delta, lst[:0])
				}
			}
		})
	}
}

// BenchmarkObjective measures evaluateClustersInto, the objective pass
// every hill-climb trial ends with, on the benchmark ledger's case1 and
// highdim shapes: the partition and dimension sets are those of one
// trial over five spread-out medoids, and the buffers are built once.
// Run with -benchmem: the allocation column must stay at zero.
//
//	go test -run xxx -bench BenchmarkObjective -benchmem ./internal/core/
func BenchmarkObjective(b *testing.B) {
	for _, sh := range ledgerShapes {
		b.Run(sh.name, func(b *testing.B) {
			ds, _, err := synth.Generate(sh.data)
			if err != nil {
				b.Fatal(err)
			}
			n := ds.Len()
			r := newRunner(ds, Config{K: 5, L: sh.l, Workers: 1})
			trial := r.evaluateMedoids([]int{0, n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5})
			s := newObjectiveScratch(n, 5, ds.Dims())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.evaluateClustersInto(trial.assign, trial.sizes, trial.dims, &s)
			}
		})
	}
}
