package core

// Kernel-tier tests: the metamorphic suite pinning the early-abandoning
// kernel (Config.Kernel, default KernelPruned) bit-identical to the
// naive kernels across evaluation engines, worker counts and both the
// in-memory and streaming entry points; the coordinate
// work-reduction guarantee on the paper's Case 1 shape; and the
// steady-state allocation contract of the packed assignment path.

import (
	"context"
	"fmt"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/synth"
)

// kernelData is a table1-shaped dataset: 20-dimensional points, five
// clusters each tight in 7 dimensions — the paper's Case 1 regime the
// pinned benchmark configuration runs on.
func kernelData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 2500, Dims: 20, K: 5, FixedDims: 7, MinSizeFraction: 0.1, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// assertSameRun fails unless a and b are the same run bit for bit:
// clustering, objective, iteration count, medoids and trial trace.
func assertSameRun(t *testing.T, a, b *Result, context string) {
	t.Helper()
	assertSameClustering(t, a, b, context)
	if a.Objective != b.Objective {
		t.Fatalf("%s: objectives differ bitwise: %v vs %v", context, a.Objective, b.Objective)
	}
	if a.Iterations != b.Iterations {
		t.Fatalf("%s: iteration counts differ: %d vs %d", context, a.Iterations, b.Iterations)
	}
	for ci := range a.Clusters {
		if a.Clusters[ci].Medoid != b.Clusters[ci].Medoid {
			t.Fatalf("%s: cluster %d medoid differs: %d vs %d",
				context, ci, a.Clusters[ci].Medoid, b.Clusters[ci].Medoid)
		}
	}
	if len(a.Stats.ObjectiveTrace) != len(b.Stats.ObjectiveTrace) {
		t.Fatalf("%s: objective trace lengths differ", context)
	}
	for i := range a.Stats.ObjectiveTrace {
		if a.Stats.ObjectiveTrace[i] != b.Stats.ObjectiveTrace[i] {
			t.Fatalf("%s: objective trace differs at trial %d", context, i)
		}
	}
}

// assertKernelCounters checks the split-counter contract between a
// pruned-tier snapshot and its naive-tier reference: both tiers start
// exactly the same evaluations, the pruned split sums back to the
// total, the naive tier never abandons, and abandonment must have
// saved coordinate reads.
func assertKernelCounters(t *testing.T, pruned, naive obs.Snapshot, context string) {
	t.Helper()
	if pruned.DistanceEvals != naive.DistanceEvals {
		t.Fatalf("%s: pruned started %d evaluations, naive %d — the tiers must start identical work",
			context, pruned.DistanceEvals, naive.DistanceEvals)
	}
	if pruned.DistanceEvalsFull+pruned.DistanceEvalsAbandoned != pruned.DistanceEvals {
		t.Fatalf("%s: full %d + abandoned %d != evals %d",
			context, pruned.DistanceEvalsFull, pruned.DistanceEvalsAbandoned, pruned.DistanceEvals)
	}
	if naive.DistanceEvalsAbandoned != 0 {
		t.Fatalf("%s: naive tier abandoned %d evaluations", context, naive.DistanceEvalsAbandoned)
	}
	if naive.DistanceEvalsFull != naive.DistanceEvals {
		t.Fatalf("%s: naive full %d != evals %d", context, naive.DistanceEvalsFull, naive.DistanceEvals)
	}
	if pruned.DistanceEvalsAbandoned == 0 {
		t.Fatalf("%s: pruned tier never abandoned on clustered data", context)
	}
	if pruned.CoordsVisited >= naive.CoordsVisited {
		t.Fatalf("%s: pruned visited %d coordinates, naive %d — no reduction",
			context, pruned.CoordsVisited, naive.CoordsVisited)
	}
}

// TestKernelPrunedBitIdentical is the tier's central contract: the
// default pruned kernel must reproduce the naive kernels' run bit for
// bit — same assignments, dimension sets, medoids, objective and trial
// trace — for every evaluation engine and worker count.
func TestKernelPrunedBitIdentical(t *testing.T) {
	ds := kernelData(t)
	base := Config{K: 5, L: 7, Seed: 17, Restarts: 2}
	for _, mode := range []EvalMode{EvalIncremental, EvalNaive} {
		cfg := base
		cfg.IncrementalEval = mode
		cfg.Workers = 1
		cfg.Kernel = KernelNaive
		naive, err := Run(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			pcfg := cfg
			pcfg.Workers = workers
			pcfg.Kernel = KernelPruned
			pruned, err := Run(ds, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("eval=%v workers=%d", mode, workers)
			assertSameRun(t, naive, pruned, ctx)
			assertKernelCounters(t, pruned.Stats.Counters, naive.Stats.Counters, ctx)
		}
	}
}

// TestKernelStreamBitIdentical is the streaming counterpart: RunStream
// under the pruned kernel must reproduce the naive-kernel stream bit
// for bit across worker counts and block sizes.
func TestKernelStreamBitIdentical(t *testing.T) {
	ds := streamEquivalenceData(t)
	base := Config{K: 3, L: 3, Seed: 13}
	ncfg := base
	ncfg.Kernel = KernelNaive
	ncfg.Workers = 1
	naive, err := RunStream(context.Background(), dataset.NewMemorySource(ds, 0), ncfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, bp := range []int{19, 256} {
			pcfg := base
			pcfg.Kernel = KernelPruned
			pcfg.Workers = workers
			pruned, err := RunStream(context.Background(), dataset.NewMemorySource(ds, bp), pcfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("stream workers=%d block=%d", workers, bp)
			assertSameRun(t, naive, pruned, ctx)
			assertKernelCounters(t, pruned.Stats.Counters, naive.Stats.Counters, ctx)
		}
	}
}

// TestKernelCountersWorkerInvariant pins the accounting's determinism:
// abandonment decisions depend only on coordinate values and
// worker-invariant thresholds, so the split counters must be
// bit-stable across worker counts.
func TestKernelCountersWorkerInvariant(t *testing.T) {
	ds := kernelData(t)
	var base obs.Snapshot
	for i, workers := range []int{1, 2, 7} {
		res, err := Run(ds, Config{K: 5, L: 7, Seed: 17, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats.Counters
		if i == 0 {
			base = s
			continue
		}
		if s != base {
			t.Fatalf("workers=%d: counters %+v differ from workers=1 %+v", workers, s, base)
		}
	}
}

// TestKernelCoordsReduction pins the tier's raison d'être on the
// pinned benchmark shape (Case 1: d = 20, l = 7): the pruned kernel
// must read at least 25% fewer coordinates than the naive tier's
// distance_evals × |dims| product — the same bound the CI benchcmp
// gate enforces on bench/baseline.json.
func TestKernelCoordsReduction(t *testing.T) {
	ds := kernelData(t)
	cfg := Config{K: 5, L: 7, Seed: 3, Restarts: 2, Workers: 1}
	ncfg := cfg
	ncfg.Kernel = KernelNaive
	naive, err := Run(ds, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The naive tier credits exactly evals × |dims| coordinates, so its
	// CoordsVisited is the full product the reduction is measured
	// against.
	product := naive.Stats.Counters.CoordsVisited
	got := pruned.Stats.Counters.CoordsVisited
	if float64(got) > 0.75*float64(product) {
		t.Fatalf("pruned kernel visited %d of %d naive coordinates (%.1f%%), want ≤ 75%%",
			got, product, 100*float64(got)/float64(product))
	}
	t.Logf("coords visited: naive %d, pruned %d (%.1f%% saved; %d of %d evaluations abandoned)",
		product, got, 100*(1-float64(got)/float64(product)),
		pruned.Stats.Counters.DistanceEvalsAbandoned, pruned.Stats.Counters.DistanceEvals)
}

// kernelAssignFixture builds the steady-state packed assignment path:
// a warmed packedRows scratch plus the buffers the pass reuses, the
// exact shape the incremental engine holds across hill-climb
// iterations.
func kernelAssignFixture(tb testing.TB, n, d, k, l int) (r *runner, pk *packedRows, medoidPts [][]float64, dims [][]int, assign []int) {
	tb.Helper()
	fixed := l
	if fixed > d {
		fixed = d
	}
	ds, _, err := synth.Generate(synth.Config{
		N: n, Dims: d, K: k, FixedDims: fixed, MinSizeFraction: 0.1, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r = newRunner(ds, Config{K: k, L: l, Seed: 11, Workers: 1})
	medoidPts = make([][]float64, k)
	dims = make([][]int, k)
	for i := 0; i < k; i++ {
		medoidPts[i] = ds.Point(i * n / k)
		set := make([]int, l)
		for j := range set {
			set[j] = (i + j) % d
		}
		dims[i] = set
	}
	pk = newPackedRows(k)
	pk.pack(medoidPts, dims)
	assign = make([]int, n)
	return r, pk, medoidPts, dims, assign
}

// TestAssignSteadyStateAllocs proves the packed path's zero-alloc
// claim: once the scratch has warmed, repacking the medoid rows and
// running the pruned assignment chunk allocate nothing.
func TestAssignSteadyStateAllocs(t *testing.T) {
	const n, d, k, l = 800, 20, 5, 7
	r, pk, medoidPts, dims, assign := kernelAssignFixture(t, n, d, k, l)
	r.assignChunkPruned(pk, dims, assign, 0, n)
	if avg := testing.AllocsPerRun(20, func() {
		pk.pack(medoidPts, dims)
		r.assignChunkPruned(pk, dims, assign, 0, n)
	}); avg > 0 {
		t.Errorf("steady-state packed assignment allocates %.1f times per pass, want 0", avg)
	}
}

// BenchmarkAssignPoints measures the steady-state pruned assignment
// pass — repack plus full chunk — across dimensionalities. Run with
// -benchmem: the allocation columns must stay at zero.
//
//	go test -bench 'BenchmarkAssignPoints' -benchmem ./internal/core/
func BenchmarkAssignPoints(b *testing.B) {
	for _, d := range []int{20, 100, 500} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			const n, k = 2000, 5
			l := 7
			if d >= 100 {
				l = d / 10
			}
			r, pk, medoidPts, dims, assign := kernelAssignFixture(b, n, d, k, l)
			r.assignChunkPruned(pk, dims, assign, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pk.pack(medoidPts, dims)
				r.assignChunkPruned(pk, dims, assign, 0, n)
			}
		})
	}
}
