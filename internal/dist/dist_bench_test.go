package dist

// Microbenchmarks for every distance kernel, over a 20-dimensional
// point pair (the paper's experiments run at d = 20). The Lp set pins
// the integer fast paths against the fractional math.Pow form — run
// with -benchmem to confirm all kernels stay allocation-free.

import (
	"testing"

	"proclus/internal/randx"
)

var benchSink float64

func benchPair(b *testing.B) ([]float64, []float64) {
	b.Helper()
	r := randx.New(1)
	return randVec(r, 20), randVec(r, 20)
}

func BenchmarkManhattan20(b *testing.B) {
	x, y := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Manhattan(x, y)
	}
}

func BenchmarkEuclidean20(b *testing.B) {
	x, y := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Euclidean(x, y)
	}
}

func BenchmarkSquaredEuclidean20(b *testing.B) {
	x, y := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = SquaredEuclidean(x, y)
	}
}

func BenchmarkChebyshev20(b *testing.B) {
	x, y := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Chebyshev(x, y)
	}
}

func BenchmarkSegmental7of20(b *testing.B) {
	x, y := benchPair(b)
	dims := []int{1, 3, 5, 7, 11, 13, 17}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Segmental(x, y, dims)
	}
}

func BenchmarkSegmentalAll20(b *testing.B) {
	x, y := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = SegmentalAll(x, y)
	}
}

func BenchmarkLp(b *testing.B) {
	x, y := benchPair(b)
	for _, bc := range []struct {
		name string
		p    float64
	}{
		{"P1", 1},     // Manhattan dispatch
		{"P2", 2},     // SquaredEuclidean dispatch
		{"P3", 3},     // integer square-and-multiply
		{"P5", 5},     // higher exponent: 3 multiplies, not 4
		{"P2.5", 2.5}, // fractional math.Pow path
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = Lp(bc.p, x, y)
			}
		})
	}
}

// The bounded kernels pay a compare per coordinate when the cutoff
// never bites (worst case) and win by skipping coordinates when it
// does; compare both regimes with BenchmarkSegmental7of20, the
// unbounded Segmental over the same dimensions.
func BenchmarkSegmentalBounded7of20(b *testing.B) {
	x, y := benchPair(b)
	dims := []int{1, 3, 5, 7, 11, 13, 17}
	full := Segmental(x, y, dims)
	packed := PackDims(y, dims, make([]float64, len(dims)))
	b.Run("PackedNoAbandon", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink, _, _ = SegmentalPackedBounded(x, packed, dims, full)
		}
	})
	b.Run("PackedAbandon", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink, _, _ = SegmentalPackedBounded(x, packed, dims, full/4)
		}
	})
}
