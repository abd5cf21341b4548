package clique

import (
	"math/big"
	"strings"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/randx"
)

// TestUnitKeyEncoding checks the base-Xi unit keys on random grids and
// interval vectors within the key's capacity: pack then unpack round-
// trips, numeric order is the byte-wise order of the one-byte-per-
// interval string keys, a step of ±1 on interval i is a step of
// ±Xi^(q−1−i) on the key (the neighbours connect visits), and dropping
// digit i gives the key of the projection without dimension i (the
// projections allProjectionsDense probes).
func TestUnitKeyEncoding(t *testing.T) {
	r := randx.New(16)
	for trial := 0; trial < 2000; trial++ {
		xi := 2 + r.Intn(254)
		q := 1 + r.Intn(keyDigits(xi))
		a, b := make([]int, q), make([]int, q)
		for i := range a {
			a[i], b[i] = r.Intn(xi), r.Intn(xi)
		}
		if trial%3 == 0 { // share a prefix so order ties reach later digits
			copy(b, a[:r.Intn(q)])
		}
		ka, kb := packKey(a, xi), packKey(b, xi)
		got := make([]int, q)
		unpackKey(got, ka, xi)
		if !equalInts(got, a) {
			t.Fatalf("xi=%d: unpack(pack(%v)) = %v", xi, a, got)
		}
		want := strings.Compare(unitKey(a), unitKey(b))
		if cmp := compareKeys(ka, kb); cmp != want {
			t.Fatalf("xi=%d: key order %d, string order %d for %v vs %v", xi, cmp, want, a, b)
		}
		weights := digitWeights(q, xi)
		for i, w := range weights {
			for _, delta := range []int{-1, 1} {
				if a[i]+delta < 0 || a[i]+delta >= xi {
					continue
				}
				a[i] += delta
				nk := packKey(a, xi)
				a[i] -= delta
				if delta < 0 && nk != ka-w || delta > 0 && nk != ka+w {
					t.Fatalf("xi=%d %v: step %+d at %d gives %d, want %d%+d·%d", xi, a, delta, i, nk, ka, delta, w)
				}
			}
			proj := append(append([]int(nil), a[:i]...), a[i+1:]...)
			if got, want := dropDigit(ka, w, xi), packKey(proj, xi); got != want {
				t.Fatalf("xi=%d %v: dropping digit %d gives %d, want %d", xi, a, i, got, want)
			}
		}
	}
}

func compareKeys(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// TestKeyDigits checks the key capacity against exact arithmetic:
// Xi^q ≤ 2^64 < Xi^(q+1) for every supported Xi.
func TestKeyDigits(t *testing.T) {
	limit := new(big.Int).Lsh(big.NewInt(1), 64)
	for xi := 2; xi <= 255; xi++ {
		q := keyDigits(xi)
		pow := new(big.Int).Exp(big.NewInt(int64(xi)), big.NewInt(int64(q)), nil)
		next := new(big.Int).Mul(pow, big.NewInt(int64(xi)))
		if pow.Cmp(limit) > 0 || next.Cmp(limit) <= 0 {
			t.Fatalf("keyDigits(%d) = %d, but %d^%d = %v against 2^64", xi, q, xi, q, pow)
		}
	}
	for xi, want := range map[int]int{2: 64, 10: 19, 16: 16, 255: 8} {
		if got := keyDigits(xi); got != want {
			t.Errorf("keyDigits(%d) = %d, want %d", xi, got, want)
		}
	}
}

// TestKeyCapacity pins the behaviour at the key's capacity. Identical
// points are one dense unit in every subspace, so at Xi = 255 the
// lattice climbs to level d: d = 8 fits (255 clusters, one per
// non-empty subspace), d = 9 needs a ninth digit and fails with an
// error naming the level, and MaxDims stops it in time.
func TestKeyCapacity(t *testing.T) {
	dup := func(d int) *dataset.Dataset {
		ds := dataset.New(d)
		p := make([]float64, d)
		for j := range p {
			p[j] = float64(j)
		}
		for i := 0; i < 20; i++ {
			ds.Append(p)
		}
		return ds
	}
	res, err := Run(dup(8), Config{Xi: 255, Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 255 || res.Levels != 8 {
		t.Fatalf("d = 8: %d clusters, %d levels; want 255 and 8", len(res.Clusters), res.Levels)
	}
	_, err = Run(dup(9), Config{Xi: 255, Tau: 0.5})
	const want = "clique: level 9 exceeds the unit key capacity of 8 dimensions at Xi = 255; set MaxDims to at most 8"
	if err == nil || err.Error() != want {
		t.Fatalf("d = 9: error %v, want %q", err, want)
	}
	res, err = Run(dup(9), Config{Xi: 255, Tau: 0.5, MaxDims: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != 8 || len(res.Clusters) != 511-1 {
		t.Fatalf("d = 9, MaxDims 8: %d clusters, %d levels; want 510 and 8", len(res.Clusters), res.Levels)
	}
}
