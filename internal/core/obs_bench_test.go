package core

// Benchmarks proving the observability layer's hot-path cost claim:
// the trial engine's assignment pass with always-on batched counters
// and a nil observer (the default production configuration) must stay
// within 2% of a completely uninstrumented pass. BenchmarkAssignObserved
// shows the cost of an attached JSON tracer for comparison; it pays
// only at event boundaries, never inside the per-point loop.

import (
	"io"
	"math"
	"testing"

	"proclus/internal/dist"
	"proclus/internal/obs"
	"proclus/internal/parallel"
	"proclus/internal/randx"
	"proclus/internal/synth"
)

// benchAssignEngine builds a trial engine whose current trial has four
// spread-out medoids, each with dimensions 0–4, staged as evaluate
// stages them, so that assign can run on its own. It also returns raw,
// a replica of the engine's assignFn with its two counter adds
// removed. Keeping everything else identical (the tiles, the batch
// kernel, the argmin, parallel.For) isolates the instrumentation cost.
func benchAssignEngine(b *testing.B, observer obs.Observer) (e *incrementalEval, raw func(lo, hi int)) {
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
	e = newEngine(r, r.newCandidateTable(medoids, 1))
	e.cur.medoids = medoids
	e.cur.dims = make([][]int, len(medoids))
	for i, m := range medoids {
		e.cur.dims[i] = []int{0, 1, 2, 3, 4}
		e.scratch.medoidPts[i] = ds.Point(m)
	}
	n, k, s := e.n, e.k, &e.scratch
	raw = func(lo, hi int) {
		dims, d := e.cur.dims, e.r.ds.Dims()
		for t0 := lo; t0 < hi; t0 += assignTile {
			t1 := min(t0+assignTile, hi)
			for _, c := range e.projDirty {
				col := e.proj[c*n+t0 : c*n+t1]
				dist.SegmentalRows(col, e.r.ds.Rows(t0, t1), d, nil, dims[c], s.medoidPts[c])
			}
			for p := t0; p < t1; p++ {
				bestIdx, bestBits := 0, math.Float64bits(math.Inf(1))
				for i := 0; i < k; i++ {
					if b := math.Float64bits(e.proj[i*n+p]); b < bestBits {
						bestIdx, bestBits = i, b
					}
				}
				s.assign[p] = bestIdx
			}
		}
	}
	return e, raw
}

// BenchmarkAssignNoop measures the engine's instrumented assignment
// pass with every projected column dirty, as after a reset, and no
// observer attached: counters on, events off. This is the default
// production path.
func BenchmarkAssignNoop(b *testing.B) {
	e, _ := benchAssignEngine(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.reset()
		e.assign()
	}
}

// BenchmarkAssignObserved measures the same pass with a JSON tracer
// attached (writing to io.Discard). The pass emits no events, so this
// should match BenchmarkAssignNoop.
func BenchmarkAssignObserved(b *testing.B) {
	e, _ := benchAssignEngine(b, obs.NewJSONTracer(io.Discard))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.reset()
		e.assign()
	}
}

// BenchmarkAssignRaw measures the uninstrumented replica of the pass
// over every column, which one assign after a reset marks dirty, as
// the baseline for the <2% overhead claim. Compare with
// BenchmarkAssignNoop:
//
//	go test -run xxx -bench 'BenchmarkAssign(Noop|Observed|Raw)' -count 10 ./internal/core/
func BenchmarkAssignRaw(b *testing.B) {
	e, raw := benchAssignEngine(b, nil)
	e.reset()
	e.assign()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel.For(e.n, e.r.innerWorkers, raw)
	}
}
