package dist

import (
	"math"
	"testing"
)

// FuzzSegmentalBounded differentially fuzzes the early-abandoning
// kernels against the naive ones. From an arbitrary byte string it
// decodes a point, a small set of medoid rows, a dimension subset and
// a cutoff, then checks the exactness contract of SegmentalPackedBounded
// against Segmental and of SegmentalAllBounded against SegmentalAll:
// unabandoned values are bit-identical to the naive kernel, and
// abandoned ones strictly prove the full distance exceeds the cutoff.
func FuzzSegmentalBounded(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0x21, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("\x07\x42segmental-bounded-differential-seed-corpus-entry"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d := 1 + int(data[0]%8) // dimensionality 1..8
		k := 1 + int(data[1]%4) // medoid count 1..4
		// Decode the point, the medoids and the cutoff from the tail,
		// cycling over it; map non-finite floats into a small range so
		// the inputs satisfy the same finiteness the dataset layer
		// validates.
		rest := data[2:]
		at := 0
		next := func() float64 {
			var bits uint64
			for b := 0; b < 8; b++ {
				if len(rest) > 0 {
					bits = bits<<8 | uint64(rest[at%len(rest)])
					at++
				}
			}
			v := math.Float64frombits(bits)
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				v = float64(int64(bits%200001)-100000) / 100
			}
			return v
		}
		x := make([]float64, d)
		for j := range x {
			x[j] = next()
		}
		medoids := make([][]float64, k)
		for m := range medoids {
			medoids[m] = make([]float64, d)
			for j := range medoids[m] {
				medoids[m][j] = next()
			}
		}
		var dims []int
		mask := data[2%len(data)]
		for j := 0; j < d; j++ {
			if mask>>(j%8)&1 == 1 {
				dims = append(dims, j)
			}
		}
		if len(dims) == 0 {
			dims = []int{int(mask) % d}
		}
		cutoffs := []float64{next(), Segmental(x, medoids[0], dims)}

		packed := make([]float64, len(dims))
		for m := 0; m < k; m++ {
			full := Segmental(x, medoids[m], dims)
			PackDims(medoids[m], dims, packed)
			for _, c := range cutoffs {
				v, seen, ab := SegmentalPackedBounded(x, packed, dims, c)
				if ab {
					if !(full > c) || !(v > c) || v > full || seen < 1 || seen > len(dims) {
						t.Fatalf("bad abandonment: full=%v value=%v visited=%d cutoff=%v", full, v, seen, c)
					}
				} else if v != full || seen != len(dims) {
					t.Fatalf("unabandoned (%v,%d) != naive (%v,%d)", v, seen, full, len(dims))
				}
				av, aseen, aab := SegmentalAllBounded(x, medoids[m], c)
				afull := SegmentalAll(x, medoids[m])
				if aab {
					if !(afull > c) || !(av > c) || av > afull {
						t.Fatalf("bad all-dims abandonment: full=%v value=%v cutoff=%v", afull, av, c)
					}
				} else if av != afull || aseen != d {
					t.Fatalf("all-dims unabandoned (%v,%d) != naive (%v,%d)", av, aseen, afull, d)
				}
			}
		}
	})
}
