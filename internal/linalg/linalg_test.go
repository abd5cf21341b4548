package linalg

import (
	"math"
	"testing"

	"proclus/internal/randx"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEigenDiagonal(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 0, 3)
	s.Set(1, 1, 1)
	s.Set(2, 2, 2)
	values, vectors, err := Eigen(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if !approx(values[i], want[i], 1e-10) {
			t.Fatalf("values = %v", values)
		}
	}
	// Eigenvector of value 1 must be ±e1.
	if !approx(math.Abs(vectors[0][1]), 1, 1e-10) {
		t.Fatalf("vector for λ=1: %v", vectors[0])
	}
}

func TestEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3 with vectors (1,-1)/√2 and
	// (1,1)/√2.
	s := NewSym(2)
	s.Set(0, 0, 2)
	s.Set(1, 1, 2)
	s.Set(0, 1, 1)
	values, vectors, err := Eigen(s)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(values[0], 1, 1e-12) || !approx(values[1], 3, 1e-12) {
		t.Fatalf("values = %v", values)
	}
	if !approx(math.Abs(vectors[0][0]), 1/math.Sqrt2, 1e-10) ||
		!approx(math.Abs(vectors[1][0]), 1/math.Sqrt2, 1e-10) {
		t.Fatalf("vectors = %v", vectors)
	}
	// (1,-1) direction: components have opposite signs.
	if vectors[0][0]*vectors[0][1] > 0 {
		t.Fatalf("λ=1 vector should be the (1,-1) direction: %v", vectors[0])
	}
}

func TestEigenPropertiesRandom(t *testing.T) {
	r := randx.New(3)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(8)
		s := NewSym(n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				s.Set(i, j, r.Uniform(-5, 5))
			}
		}
		values, vectors, err := Eigen(s)
		if err != nil {
			t.Fatal(err)
		}
		// Ascending order.
		for i := 1; i < n; i++ {
			if values[i] < values[i-1]-1e-12 {
				t.Fatalf("values not ascending: %v", values)
			}
		}
		// A·v = λ·v for every pair.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				var av float64
				for j := 0; j < n; j++ {
					av += s.At(i, j) * vectors[k][j]
				}
				if !approx(av, values[k]*vectors[k][i], 1e-8) {
					t.Fatalf("trial %d: A·v ≠ λ·v at (%d,%d): %v vs %v",
						trial, k, i, av, values[k]*vectors[k][i])
				}
			}
		}
		// Orthonormality.
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				want := 0.0
				if a == b {
					want = 1
				}
				if !approx(Dot(vectors[a], vectors[b]), want, 1e-9) {
					t.Fatalf("vectors %d,%d not orthonormal", a, b)
				}
			}
		}
		// Trace preservation.
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += s.At(i, i)
			sum += values[i]
		}
		if !approx(trace, sum, 1e-8) {
			t.Fatalf("trace %v != eigenvalue sum %v", trace, sum)
		}
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Points (0,0), (2,0), (0,2), (2,2): var = 4/3 per dim (sample),
	// cov = 0.
	pts := [][]float64{{0, 0}, {2, 0}, {0, 2}, {2, 2}}
	cov := Covariance(2, []int{0, 1, 2, 3}, func(i int) []float64 { return pts[i] })
	if !approx(cov.At(0, 0), 4.0/3, 1e-12) || !approx(cov.At(1, 1), 4.0/3, 1e-12) {
		t.Fatalf("variances: %v %v", cov.At(0, 0), cov.At(1, 1))
	}
	if !approx(cov.At(0, 1), 0, 1e-12) {
		t.Fatalf("covariance: %v", cov.At(0, 1))
	}
}

func TestCovarianceDetectsCorrelatedDirection(t *testing.T) {
	// Points stretched along the (1,1) diagonal: the smallest-eigenvalue
	// eigenvector must be the (1,-1) direction.
	r := randx.New(5)
	var pts [][]float64
	for i := 0; i < 500; i++ {
		tt := r.Normal(0, 10)
		pts = append(pts, []float64{tt + r.Normal(0, 0.5), tt + r.Normal(0, 0.5)})
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	cov := Covariance(2, idx, func(i int) []float64 { return pts[i] })
	values, vectors, err := Eigen(cov)
	if err != nil {
		t.Fatal(err)
	}
	if values[0] > values[1] {
		t.Fatal("eigenvalues not ascending")
	}
	// Tight direction ≈ (1,-1)/√2.
	v := vectors[0]
	if !approx(math.Abs(v[0]), 1/math.Sqrt2, 0.05) || v[0]*v[1] > 0 {
		t.Fatalf("tight direction = %v, want ±(1,-1)/√2", v)
	}
}

func TestProjectOffsetAndDistance(t *testing.T) {
	basis := [][]float64{{1, 0, 0}, {0, 1, 0}}
	p := []float64{3, 4, 99}
	origin := []float64{0, 0, 7}
	coords := ProjectOffset(p, origin, basis)
	if coords[0] != 3 || coords[1] != 4 {
		t.Fatalf("coords = %v", coords)
	}
	if d := ProjectedDistance(p, origin, basis); !approx(d, 5, 1e-12) {
		t.Fatalf("projected distance = %v, want 5", d)
	}
}

// heapProjectedDistance is ProjectedDistance as first written, with a
// heap-allocated difference vector: the reference for bit equality.
func heapProjectedDistance(p, origin []float64, basis [][]float64) float64 {
	var s float64
	diff := make([]float64, len(p))
	for i := range p {
		diff[i] = p[i] - origin[i]
	}
	for _, b := range basis {
		d := Dot(diff, b)
		s += d * d
	}
	return math.Sqrt(s)
}

func TestProjectedDistanceMatchesHeapFormula(t *testing.T) {
	// Dimensions above 64 take the heap fallback; both paths must keep
	// the float operation order bit for bit.
	r := randx.New(7)
	for trial := 0; trial < 500; trial++ {
		d := 1 + r.Intn(100)
		m := 1 + r.Intn(d)
		p, origin := make([]float64, d), make([]float64, d)
		for i := range p {
			p[i] = r.Uniform(-1e3, 1e3)
			origin[i] = r.Uniform(-1e3, 1e3)
		}
		basis := RandomOrthonormal(d, m, r.NormFloat64)
		got, want := ProjectedDistance(p, origin, basis), heapProjectedDistance(p, origin, basis)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d=%d m=%d: %v != %v", d, m, got, want)
		}
	}
}

func TestProjectedDistanceAllocFree(t *testing.T) {
	r := randx.New(9)
	for _, d := range []int{1, 12, 64} {
		p, origin := make([]float64, d), make([]float64, d)
		for i := range p {
			p[i], origin[i] = r.Float64(), r.Float64()
		}
		basis := RandomOrthonormal(d, (d+1)/2, r.NormFloat64)
		if n := testing.AllocsPerRun(100, func() { ProjectedDistance(p, origin, basis) }); n != 0 {
			t.Errorf("d=%d: %v allocs per call, want 0", d, n)
		}
	}
}

func TestRandomOrthonormal(t *testing.T) {
	r := randx.New(9)
	for trial := 0; trial < 20; trial++ {
		d := 2 + r.Intn(10)
		m := 1 + r.Intn(d)
		basis := RandomOrthonormal(d, m, r.NormFloat64)
		if len(basis) != m {
			t.Fatalf("got %d vectors", len(basis))
		}
		for a := 0; a < m; a++ {
			for b := a; b < m; b++ {
				want := 0.0
				if a == b {
					want = 1
				}
				if !approx(Dot(basis[a], basis[b]), want, 1e-9) {
					t.Fatalf("basis %d·%d = %v, want %v", a, b, Dot(basis[a], basis[b]), want)
				}
			}
		}
	}
}

func TestRandomOrthonormalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("m > d did not panic")
		}
	}()
	RandomOrthonormal(2, 3, randx.New(1).NormFloat64)
}

func TestNewSymPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSym(0) did not panic")
		}
	}()
	NewSym(0)
}

func TestCovarianceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty covariance did not panic")
		}
	}()
	Covariance(2, nil, func(i int) []float64 { return nil })
}
