package core

// Steady-state allocation tests for the refinement kernel that both
// refinements and the naive reference's assignment run, with its rows,
// medoids and output buffer built once.

import (
	"fmt"
	"testing"

	"proclus/internal/synth"
)

// assignFixture builds the kernel's inputs: the point rows, the medoid
// rows, their dimension sets and the assignment buffer the pass reuses.
func assignFixture(tb testing.TB, n, d, k, l int) (rows []float64, medoidPts [][]float64, dims [][]int, assign []int) {
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
	return ds.Rows(0, n), medoidPts, dims, make([]int, n)
}

// TestAssignSteadyStateAllocs proves the kernel's zero-alloc claim:
// with its inputs and output buffer built once, a full pass over the
// points allocates nothing, with and without spheres of influence.
func TestAssignSteadyStateAllocs(t *testing.T) {
	const n, d, k, l = 800, 20, 5, 7
	rows, medoidPts, dims, assign := assignFixture(t, n, d, k, l)
	delta := []float64{1, 2, 3, 4, 5}
	for _, radii := range [][]float64{nil, delta} {
		if avg := testing.AllocsPerRun(20, func() {
			refineRows(rows, d, medoidPts, dims, radii, assign)
		}); avg > 0 {
			t.Errorf("steady-state assignment (delta %v) allocates %.1f times per pass, want 0", radii, avg)
		}
	}
}

// BenchmarkAssignPoints measures the steady-state kernel over every
// point across dimensionalities, without spheres of influence. Run with
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
			rows, medoidPts, dims, assign := assignFixture(b, n, d, k, l)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refineRows(rows, d, medoidPts, dims, nil, assign)
			}
		})
	}
}
