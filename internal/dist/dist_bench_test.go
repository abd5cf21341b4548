package dist

// Microbenchmarks for every distance kernel, over a 20-dimensional
// point pair (the paper's experiments run at d = 20). The Lp set pins
// the integer fast paths against the fractional math.Pow form — run
// with -benchmem to confirm all kernels stay allocation-free.

import (
	"fmt"
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

// batchFixture is 1,000 random rows of d coordinates and a center.
func batchFixture(d int) (data, center []float64) {
	r := randx.New(1)
	return randVec(r, 1000*d), randVec(r, d)
}

// BenchmarkSegmentalRows measures the batch segmental kernel over 256
// rows, a tile of the assignment passes, at d = 20 and d = 100 over
// seven dimensions: contiguous rows as the assignment passes read them,
// and every third row by list as the objective pass reads a cluster's
// members. Run with -benchmem: the allocation column must stay at zero.
func BenchmarkSegmentalRows(b *testing.B) {
	dims := []int{1, 3, 5, 7, 11, 13, 17}
	listed := make([]int, 256)
	for q := range listed {
		listed[q] = 3 * q
	}
	out := make([]float64, 256)
	for _, d := range []int{20, 100} {
		data, center := batchFixture(d)
		for _, bc := range []struct {
			name string
			rows []int
		}{{"contiguous", nil}, {"listed", listed}} {
			b.Run(fmt.Sprintf("%s/d=%d", bc.name, d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					SegmentalRows(out, data, d, bc.rows, dims, center)
				}
			})
		}
	}
}

// BenchmarkAddAbsDiffs measures the batch absolute-difference
// accumulation over a 1,000-row group, the X_{i,j} sums of one Z row,
// at d = 20 and d = 100. Run with -benchmem: the allocation column
// must stay at zero.
func BenchmarkAddAbsDiffs(b *testing.B) {
	rows := make([]int, 1000)
	for q := range rows {
		rows[q] = q
	}
	for _, d := range []int{20, 100} {
		data, center := batchFixture(d)
		x := make([]float64, d)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AddAbsDiffs(x, center, data, d, rows)
			}
		})
	}
}
