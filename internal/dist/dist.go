// Package dist implements the distance functions of the PROCLUS paper
// (§1.2): Lp norms over full-dimensional points, and the Manhattan
// segmental distance relative to a set of dimensions, which is the metric
// PROCLUS uses to compare points against medoids in projected subspaces.
//
// All functions operate on raw float64 slices so that the hot loops of
// the clustering algorithms run without interface dispatch or bounds
// re-checks beyond what the compiler needs.
package dist

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Manhattan returns the L1 distance between x and y. It panics if the
// slices have different lengths.
func Manhattan(x, y []float64) float64 {
	checkLen(x, y)
	var s float64
	for i := range x {
		s += math.Abs(x[i] - y[i])
	}
	return s
}

// Euclidean returns the L2 distance between x and y.
func Euclidean(x, y []float64) float64 {
	return math.Sqrt(SquaredEuclidean(x, y))
}

// SquaredEuclidean returns the squared L2 distance between x and y. It
// is cheaper than Euclidean and order-equivalent, so nearest-neighbour
// searches should prefer it.
func SquaredEuclidean(x, y []float64) float64 {
	checkLen(x, y)
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// Lp returns the Lp-norm distance between x and y for p >= 1. Lp(1, …)
// equals Manhattan exactly and Lp(2, …) equals Euclidean; integer p
// dispatches to multiplication-based kernels, so no path pays the
// per-coordinate math.Pow the general fractional form needs. It panics
// if p < 1.
func Lp(p float64, x, y []float64) float64 {
	if p < 1 {
		panic(fmt.Sprintf("dist: Lp called with p = %v < 1", p))
	}
	switch p {
	case 1:
		return Manhattan(x, y)
	case 2:
		return math.Sqrt(SquaredEuclidean(x, y))
	}
	checkLen(x, y)
	if ip := int(p); float64(ip) == p {
		return lpInt(ip, p, x, y)
	}
	var s float64
	for i := range x {
		s += math.Pow(math.Abs(x[i]-y[i]), p)
	}
	return math.Pow(s, 1/p)
}

// lpInt is the integer-exponent Lp kernel: |x−y|^p by binary
// exponentiation (square-and-multiply), so the per-coordinate cost is
// O(log p) multiplies instead of the previous O(p) chain while still
// avoiding math.Pow's exp/log round trip. Only the final 1/p root
// needs math.Pow.
func lpInt(ip int, p float64, x, y []float64) float64 {
	var s float64
	for i := range x {
		s += powInt(math.Abs(x[i]-y[i]), ip)
	}
	return math.Pow(s, 1/p)
}

// powInt raises d ≥ 0 to the integer power e ≥ 1 by square-and-multiply.
// For e ≤ 3 the multiplication trees coincide with the old multiply
// chain (d, d·d, d·(d·d) up to commutativity), so those results are
// bit-identical to before; larger exponents may differ from the chain
// by an ulp, as any reassociation does.
func powInt(d float64, e int) float64 {
	r := 1.0
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r *= d
		}
		d *= d
	}
	return r
}

// Chebyshev returns the L∞ distance (maximum coordinate difference)
// between x and y.
func Chebyshev(x, y []float64) float64 {
	checkLen(x, y)
	var m float64
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > m {
			m = d
		}
	}
	return m
}

// Segmental returns the Manhattan segmental distance between x and y
// relative to the dimension set dims: the average per-dimension L1
// difference over dims. Normalizing by |dims| makes distances comparable
// across clusters whose associated dimension sets have different sizes
// (paper §1.2). It panics if dims is empty or contains an out-of-range
// dimension.
func Segmental(x, y []float64, dims []int) float64 {
	if len(dims) == 0 {
		panic("dist: Segmental called with empty dimension set")
	}
	var s float64
	for _, j := range dims {
		s += math.Abs(x[j] - y[j])
	}
	return s / float64(len(dims))
}

// SegmentalAll returns the Manhattan segmental distance between x and y
// relative to all dimensions, i.e. Manhattan(x, y) / d. PROCLUS uses
// this as its full-dimensional distance so that initialization-phase
// distances and projected distances live on the same scale.
func SegmentalAll(x, y []float64) float64 {
	checkLen(x, y)
	if len(x) == 0 {
		panic("dist: SegmentalAll called with zero-dimensional points")
	}
	return Manhattan(x, y) / float64(len(x))
}

// Func is a full-dimensional distance function over two points.
type Func func(x, y []float64) float64

// ByName resolves a distance function from its conventional name. It
// recognizes "manhattan" (l1), "euclidean" (l2), "chebyshev" (linf) and
// "segmental" (Manhattan segmental over all dimensions). The boolean
// reports whether the name was recognized.
func ByName(name string) (Func, bool) {
	switch name {
	case "manhattan", "l1":
		return Manhattan, true
	case "euclidean", "l2":
		return Euclidean, true
	case "chebyshev", "linf":
		return Chebyshev, true
	case "segmental":
		return SegmentalAll, true
	}
	return nil, false
}

// Counted wraps f so every evaluation increments n. It instruments
// call sites whose evaluation count cannot be derived arithmetically
// (e.g. the greedy farthest-first closure); loops with a predictable
// count should instead add their totals to the counter in one batch.
func Counted(f Func, n *atomic.Int64) Func {
	return func(x, y []float64) float64 {
		n.Add(1)
		return f(x, y)
	}
}

func checkLen(x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dist: dimension mismatch: %d vs %d", len(x), len(y)))
	}
}
