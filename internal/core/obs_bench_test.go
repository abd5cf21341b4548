package core

// Benchmarks proving the observability layer's hot-path cost claim:
// the assignment pass with always-on batched counters and a nil
// observer (the default production configuration) must stay within 2%
// of a completely uninstrumented loop. BenchmarkAssignObserved shows
// the cost of an attached JSON tracer for comparison; it pays only at
// event boundaries, never inside the per-point loop.

import (
	"io"
	"testing"

	"proclus/internal/obs"
	"proclus/internal/parallel"
	"proclus/internal/randx"
	"proclus/internal/synth"
)

func benchAssignSetup(b *testing.B, observer obs.Observer) (*runner, []int, [][]int) {
	b.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 5000, Dims: 16, K: 4, FixedDims: 5, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{K: 4, L: 5, Workers: 1, Observer: observer}.withDefaults()
	r := &runner{ds: ds, cfg: cfg, rng: randx.New(1), obs: observer, innerWorkers: cfg.Workers}
	medoids := []int{0, 1250, 2500, 3750}
	dims := make([][]int, len(medoids))
	for i := range dims {
		dims[i] = []int{0, 1, 2, 3, 4}
	}
	return r, medoids, dims
}

// BenchmarkAssignNoop measures the instrumented assignment pass with no
// observer attached: counters on, events off. This is the default
// production path.
func BenchmarkAssignNoop(b *testing.B) {
	r, medoids, dims := benchAssignSetup(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = r.assignPoints(medoids, dims)
	}
}

// BenchmarkAssignObserved measures the same pass with a JSON tracer
// attached (writing to io.Discard). assignPoints emits no per-point
// events, so this should match BenchmarkAssignNoop.
func BenchmarkAssignObserved(b *testing.B) {
	r, medoids, dims := benchAssignSetup(b, obs.NewJSONTracer(io.Discard))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = r.assignPoints(medoids, dims)
	}
}

// BenchmarkAssignRaw measures an uninstrumented replica of
// assignPoints — byte-for-byte the same code minus the two batched
// counter adds — as the baseline for the <2% overhead claim. Compare
// with BenchmarkAssignNoop:
//
//	go test -bench 'BenchmarkAssign' -count 10 ./internal/core/
func BenchmarkAssignRaw(b *testing.B) {
	r, medoids, dims := benchAssignSetup(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = rawAssignPoints(r, medoids, dims)
	}
}

// rawAssignPoints replicates assignPoints exactly, with the counter
// adds removed. Keeping everything else identical (allocations, the
// refinement kernel, parallel.For) isolates the instrumentation cost.
func rawAssignPoints(r *runner, medoids []int, dims [][]int) (assign []int, sizes []int) {
	n, d := r.ds.Len(), r.ds.Dims()
	assign = make([]int, n)
	medoidPoints := make([][]float64, len(medoids))
	for i, m := range medoids {
		medoidPoints[i] = r.ds.Point(m)
	}
	parallel.For(n, r.innerWorkers, func(lo, hi int) {
		refineRows(r.ds.Rows(lo, hi), d, medoidPoints, dims, nil, assign[lo:hi])
	})
	sizes = make([]int, len(medoids))
	for _, a := range assign {
		sizes[a]++
	}
	return assign, sizes
}
