// Early-abandoning variants of the segmental kernels: once a running
// best distance exists, a candidate whose partial sum already proves it
// farther can be abandoned mid-loop without changing any output. No
// clustering pass abandons any more — PROCLUS evaluates every distance
// in full, and its greedy traversal calls SegmentalAllBounded with
// cutoff +Inf — but bench/ledger still times these kernels and replays
// a bounded traversal, so they stay until that benchmark drops them.
//
// Exactness argument: the partial sums s_0 ≤ s_1 ≤ … ≤ s_w are
// non-decreasing even in floating point (IEEE round-to-nearest is
// monotone and every term is non-negative, so fl(s+t) ≥ s), and
// dividing by the positive weight w is also rounding-monotone.
// Therefore the partially normalized value fl(s_i/w) never exceeds the
// fully accumulated fl(s_w/w), and "partial > cutoff" proves
// "full > cutoff" — strictly. An abandoned candidate can thus never
// beat a best-so-far of exactly cutoff, even under the lowest-index
// tie-break, and every kernel below confirms abandonment on the
// *normalized* value, not on the raw sum: the cheap sum-space trigger
// s > cutoff·w alone could misfire by an ulp when the division rounds
// fl(s_w/w) down onto the cutoff, which must remain a tie.
//
// Each kernel returns (value, visited, abandoned): the normalized
// distance (a lower bound on the full distance when abandoned, the
// exact full distance otherwise), the number of coordinates visited,
// and whether the scan bailed early. Callers feed visited into the
// coords_visited work counter and must treat an abandoned value only
// as proof that the true distance exceeds cutoff.

package dist

import "math"

// SegmentalPackedBounded is Segmental with early abandonment, against
// a packed medoid row: packed[i] must hold y[dims[i]] (see PackDims),
// so the inner loop reads the medoid sequentially instead of through
// the dims indirection. It accumulates |x[j]−packed[i]| in dims order
// and bails as soon as the partial normalized distance strictly
// exceeds cutoff. With cutoff = +Inf (or NaN) it never abandons and
// returns exactly Segmental(x, y, dims). It panics if dims is empty.
func SegmentalPackedBounded(x, packed []float64, dims []int, cutoff float64) (value float64, visited int, abandoned bool) {
	if len(dims) == 0 {
		panic("dist: SegmentalPackedBounded called with empty dimension set")
	}
	w := float64(len(dims))
	trigger := cutoff * w
	var s float64
	for i, j := range dims {
		s += math.Abs(x[j] - packed[i])
		if s > trigger {
			if v := s / w; v > cutoff {
				return v, i + 1, true
			}
		}
	}
	return s / w, len(dims), false
}

// SegmentalAllBounded is SegmentalAll with early abandonment. The
// accumulation order is the natural coordinate order, matching
// Manhattan, so an unabandoned result is bit-identical to
// SegmentalAll(x, y). It panics on mismatched or zero-dimensional
// points.
func SegmentalAllBounded(x, y []float64, cutoff float64) (value float64, visited int, abandoned bool) {
	checkLen(x, y)
	if len(x) == 0 {
		panic("dist: SegmentalAllBounded called with zero-dimensional points")
	}
	w := float64(len(x))
	trigger := cutoff * w
	var s float64
	for i := range x {
		s += math.Abs(x[i] - y[i])
		if s > trigger {
			if v := s / w; v > cutoff {
				return v, i + 1, true
			}
		}
	}
	return s / w, len(x), false
}

// PackDims gathers src's coordinates over dims into dst:
// dst[i] = src[dims[i]]. dst must have len(dims) capacity available;
// the filled prefix is returned. Packing a medoid's coordinates once
// per pass turns the twice-indirected inner-loop read
// medoid[dims[i]] into a sequential packed[i] read for the
// *PackedBounded kernels.
func PackDims(src []float64, dims []int, dst []float64) []float64 {
	dst = dst[:len(dims)]
	for i, j := range dims {
		dst[i] = src[j]
	}
	return dst
}
