package core

// Steady-state allocation tests for the assignment pass: the shape the
// incremental engine holds across hill-climb iterations, with its
// metric closure and buffers built once.

import (
	"fmt"
	"testing"

	"proclus/internal/synth"
)

// assignFixture builds the steady-state assignment chunk's inputs: a
// runner, the medoid rows, their dimension sets, a prebuilt metric and
// the assignment buffer the pass reuses.
func assignFixture(tb testing.TB, n, d, k, l int) (r *runner, medoidPts [][]float64, dims [][]int,
	metric func(pt, medoid []float64, dims []int) float64, assign []int) {
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
	return r, medoidPts, dims, r.pointMetric(), make([]int, n)
}

// TestAssignSteadyStateAllocs proves the assignment chunk's zero-alloc
// claim: with the metric and buffers built once, a full pass allocates
// nothing.
func TestAssignSteadyStateAllocs(t *testing.T) {
	const n, d, k, l = 800, 20, 5, 7
	r, medoidPts, dims, metric, assign := assignFixture(t, n, d, k, l)
	r.assignChunk(medoidPts, dims, metric, assign, 0, n)
	if avg := testing.AllocsPerRun(20, func() {
		r.assignChunk(medoidPts, dims, metric, assign, 0, n)
	}); avg > 0 {
		t.Errorf("steady-state assignment allocates %.1f times per pass, want 0", avg)
	}
}

// BenchmarkAssignPoints measures the steady-state assignment chunk over
// every point across dimensionalities. Run with -benchmem: the
// allocation columns must stay at zero.
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
			r, medoidPts, dims, metric, assign := assignFixture(b, n, d, k, l)
			r.assignChunk(medoidPts, dims, metric, assign, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.assignChunk(medoidPts, dims, metric, assign, 0, n)
			}
		})
	}
}
