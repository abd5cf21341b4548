package dist

import (
	"math"
	"testing"

	"proclus/internal/randx"
)

// TestBoundedUnbounded pins the cutoff = +Inf (and NaN) behaviour:
// no abandonment, every coordinate visited, and the value bit-identical
// to the corresponding unbounded kernel.
func TestBoundedUnbounded(t *testing.T) {
	r := randx.New(3)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(16)
		x, y := randVec(r, n), randVec(r, n)
		dims := randDims(r, n)
		packed := PackDims(y, dims, make([]float64, len(dims)))
		for _, cutoff := range []float64{math.Inf(1), math.NaN()} {
			v, seen, ab := SegmentalPackedBounded(x, packed, dims, cutoff)
			if ab || seen != len(dims) || v != Segmental(x, y, dims) {
				t.Fatalf("SegmentalPackedBounded(cutoff=%v) = (%v,%d,%v), want full %v", cutoff, v, seen, ab, Segmental(x, y, dims))
			}
			v, seen, ab = SegmentalAllBounded(x, y, cutoff)
			if ab || seen != len(x) || v != SegmentalAll(x, y) {
				t.Fatalf("SegmentalAllBounded(cutoff=%v) = (%v,%d,%v), want full %v", cutoff, v, seen, ab, SegmentalAll(x, y))
			}
		}
	}
}

// TestBoundedClassification checks the abandonment contract on random
// inputs and adversarial cutoffs: an unabandoned result is the exact
// full distance; an abandoned result strictly proves the full distance
// exceeds the cutoff; and a cutoff exactly equal to the full distance
// never abandons (ties must survive for the lowest-index tie-break).
func TestBoundedClassification(t *testing.T) {
	r := randx.New(7)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(16)
		x, y := randVec(r, n), randVec(r, n)
		dims := randDims(r, n)
		packed := PackDims(y, dims, make([]float64, len(dims)))
		full := Segmental(x, y, dims)
		cutoffs := []float64{
			full,               // exact tie: must not abandon
			full * (1 + 1e-15), // a hair above
			full * (1 - 1e-15), // a hair below
			full / 2, full * 2,
			0, -1,
			r.Float64() * 4,
		}
		for _, c := range cutoffs {
			v, seen, ab := SegmentalPackedBounded(x, packed, dims, c)
			if ab {
				if !(full > c) {
					t.Fatalf("abandoned at cutoff %v but full %v ≤ cutoff", c, full)
				}
				if !(v > c) {
					t.Fatalf("abandoned value %v ≤ cutoff %v", v, c)
				}
				if v > full {
					t.Fatalf("abandoned value %v exceeds full %v (partial sums must lower-bound)", v, full)
				}
				if seen < 1 || seen > len(dims) {
					t.Fatalf("visited = %d outside [1,%d]", seen, len(dims))
				}
			} else {
				if v != full || seen != len(dims) {
					t.Fatalf("unabandoned (%v,%d) != full (%v,%d)", v, seen, full, len(dims))
				}
			}
			if c == full && ab {
				t.Fatalf("cutoff == full distance %v abandoned; ties must survive", full)
			}
		}
	}
}

// TestPackedVariantsAgree pins both bounded kernels against their
// unbounded references across random cutoffs: the packed segmental
// kernel against Segmental, the all-dimensions kernel against
// SegmentalAll.
func TestPackedVariantsAgree(t *testing.T) {
	r := randx.New(11)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(16)
		x, y := randVec(r, n), randVec(r, n)
		dims := randDims(r, n)
		packed := PackDims(y, dims, make([]float64, len(dims)))
		c := r.Float64() * 3
		full := Segmental(x, y, dims)
		v, seen, ab := SegmentalPackedBounded(x, packed, dims, c)
		if ab {
			if !(full > c) || !(v > c) || v > full {
				t.Fatalf("SegmentalPackedBounded abandon at %v: value %v, full %v", c, v, full)
			}
		} else if v != full || seen != len(dims) {
			t.Fatalf("SegmentalPackedBounded unabandoned (%v,%d) != full (%v,%d)", v, seen, full, len(dims))
		}
		fullAll := SegmentalAll(x, y)
		v, seen, ab = SegmentalAllBounded(x, y, c)
		if ab {
			if !(fullAll > c) || !(v > c) || v > fullAll {
				t.Fatalf("SegmentalAllBounded abandon at %v: value %v, full %v", c, v, fullAll)
			}
		} else if v != fullAll || seen != len(x) {
			t.Fatalf("SegmentalAllBounded unabandoned (%v,%d) != full (%v,%d)", v, seen, fullAll, len(x))
		}
		if _, _, abt := SegmentalAllBounded(x, y, fullAll); abt {
			t.Fatalf("SegmentalAllBounded cutoff == full %v abandoned", fullAll)
		}
	}
}

// TestBoundedAbandonsEarly checks that a hopeless candidate is dropped
// after the first coordinate rather than scanned to completion.
func TestBoundedAbandonsEarly(t *testing.T) {
	x := []float64{100, 0, 0, 0}
	y := []float64{0, 0, 0, 0}
	dims := []int{0, 1, 2, 3}
	packed := PackDims(y, dims, make([]float64, len(dims)))
	v, seen, ab := SegmentalPackedBounded(x, packed, dims, 1)
	if !ab || seen != 1 {
		t.Fatalf("got (%v,%d,%v), want abandonment after 1 coordinate", v, seen, ab)
	}
	if !(v > 1) {
		t.Fatalf("abandoned value %v ≤ cutoff 1", v)
	}
}

// TestPackDims pins the gather layout and the reuse of dst capacity.
func TestPackDims(t *testing.T) {
	src := []float64{10, 11, 12, 13, 14}
	buf := make([]float64, 0, 5)
	got := PackDims(src, []int{4, 0, 2}, buf[:3])
	want := []float64{14, 10, 12}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("PackDims = %v, want %v", got, want)
	}
	got = PackDims(src, []int{1}, got)
	if len(got) != 1 || got[0] != 11 {
		t.Fatalf("PackDims reuse = %v, want [11]", got)
	}
}

// TestPowInt pins the square-and-multiply kernel: bit-identical to the
// old multiply chain for e ≤ 3 and within an ulp-scale tolerance of
// math.Pow beyond that.
func TestPowInt(t *testing.T) {
	chain := func(d float64, e int) float64 {
		pw := d
		for i := 1; i < e; i++ {
			pw *= d
		}
		return pw
	}
	r := randx.New(13)
	for trial := 0; trial < 500; trial++ {
		d := r.Float64() * 10
		for e := 1; e <= 3; e++ {
			if got, want := powInt(d, e), chain(d, e); got != want {
				t.Fatalf("powInt(%v,%d) = %v not bit-identical to chain %v", d, e, got, want)
			}
		}
		for e := 4; e <= 9; e++ {
			if got, want := powInt(d, e), math.Pow(d, float64(e)); !almostEqual(got, want) {
				t.Fatalf("powInt(%v,%d) = %v, math.Pow = %v", d, e, got, want)
			}
		}
	}
	if got := powInt(0, 3); got != 0 {
		t.Fatalf("powInt(0,3) = %v, want 0", got)
	}
	if got := powInt(2, 10); got != 1024 {
		t.Fatalf("powInt(2,10) = %v, want 1024", got)
	}
}

// randDims draws a random non-empty dimension subset of [0, n).
func randDims(r *randx.Rand, n int) []int {
	var dims []int
	for j := 0; j < n; j++ {
		if r.Intn(2) == 0 {
			dims = append(dims, j)
		}
	}
	if len(dims) == 0 {
		dims = []int{r.Intn(n)}
	}
	return dims
}
