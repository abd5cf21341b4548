// Package linalg provides the small dense linear algebra kernel needed
// by the generalized (arbitrarily oriented) projected clustering
// extension: symmetric matrices, covariance computation, and a Jacobi
// eigenvalue decomposition. The PROCLUS paper's conclusions name
// clusters "not parallel to the original axes" as future work; the
// authors' follow-up algorithm (ORCLUS, SIGMOD 2000) selects per-cluster
// subspaces as the eigenvectors of least spread, which is exactly what
// this package computes.
//
// Matrices here are tiny (d×d for data dimensionality d, typically
// ≤ 100), so the classic cyclic Jacobi method is both simple and fully
// adequate; no external BLAS is needed.
package linalg

import (
	"fmt"
	"math"
)

// Sym is a dense symmetric d×d matrix stored in full.
type Sym struct {
	N int
	A [][]float64
}

// NewSym returns a zero symmetric matrix of order n.
func NewSym(n int) *Sym {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: non-positive order %d", n))
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	return &Sym{N: n, A: a}
}

// Set assigns A[i][j] = A[j][i] = v.
func (s *Sym) Set(i, j int, v float64) {
	s.A[i][j] = v
	s.A[j][i] = v
}

// At returns A[i][j].
func (s *Sym) At(i, j int) float64 { return s.A[i][j] }

// Clone returns a deep copy.
func (s *Sym) Clone() *Sym {
	out := NewSym(s.N)
	for i := range s.A {
		copy(out.A[i], s.A[i])
	}
	return out
}

// Covariance computes the sample covariance matrix of the rows
// identified by members, where row(i) yields the i-th point. It panics
// if members is empty.
func Covariance(dims int, members []int, row func(i int) []float64) *Sym {
	if len(members) == 0 {
		panic("linalg: covariance of empty member set")
	}
	mean := make([]float64, dims)
	for _, m := range members {
		p := row(m)
		for j, v := range p {
			mean[j] += v
		}
	}
	inv := 1 / float64(len(members))
	for j := range mean {
		mean[j] *= inv
	}
	cov := NewSym(dims)
	centered := make([]float64, dims)
	for _, m := range members {
		p := row(m)
		for j := range centered {
			centered[j] = p[j] - mean[j]
		}
		for i := 0; i < dims; i++ {
			ci := centered[i]
			rowI := cov.A[i]
			for j := i; j < dims; j++ {
				rowI[j] += ci * centered[j]
			}
		}
	}
	denom := float64(len(members))
	if len(members) > 1 {
		denom = float64(len(members) - 1)
	}
	for i := 0; i < dims; i++ {
		for j := i; j < dims; j++ {
			v := cov.A[i][j] / denom
			cov.A[i][j] = v
			cov.A[j][i] = v
		}
	}
	return cov
}

// Eigen computes the full eigendecomposition of the symmetric matrix by
// the cyclic Jacobi method. It returns the eigenvalues in ascending
// order with their matching orthonormal eigenvectors (vectors[k] pairs
// with values[k]). The input matrix is not modified.
func Eigen(s *Sym) (values []float64, vectors [][]float64, err error) {
	n := s.N
	a := s.Clone().A
	// v accumulates the rotations; starts as identity.
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(a)
		if off < 1e-13 {
			break
		}
		if sweep == maxSweeps-1 {
			return nil, nil, fmt.Errorf("linalg: Jacobi did not converge (off-diagonal %g)", off)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(a[p][q]) < 1e-300 {
					continue
				}
				// Classical Jacobi rotation annihilating a[p][q].
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := sign(theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				tau := sn / (1 + c)
				apq := a[p][q]
				a[p][p] -= t * apq
				a[q][q] += t * apq
				a[p][q] = 0
				a[q][p] = 0
				for i := 0; i < n; i++ {
					if i != p && i != q {
						aip, aiq := a[i][p], a[i][q]
						a[i][p] = aip - sn*(aiq+tau*aip)
						a[p][i] = a[i][p]
						a[i][q] = aiq + sn*(aip-tau*aiq)
						a[q][i] = a[i][q]
					}
					vip, viq := v[i][p], v[i][q]
					v[i][p] = vip - sn*(viq+tau*vip)
					v[i][q] = viq + sn*(vip-tau*viq)
				}
			}
		}
	}

	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = a[i][i]
	}
	// Column i of v is the eigenvector of values[i]; extract and sort
	// ascending by eigenvalue.
	vectors = make([][]float64, n)
	for i := 0; i < n; i++ {
		col := make([]float64, n)
		for r := 0; r < n; r++ {
			col[r] = v[r][i]
		}
		vectors[i] = col
	}
	sortEigen(values, vectors)
	return values, vectors, nil
}

func sortEigen(values []float64, vectors [][]float64) {
	// Insertion sort: n is tiny and stability keeps ties deterministic.
	for i := 1; i < len(values); i++ {
		for j := i; j > 0 && values[j] < values[j-1]; j-- {
			values[j], values[j-1] = values[j-1], values[j]
			vectors[j], vectors[j-1] = vectors[j-1], vectors[j]
		}
	}
}

func offDiagNorm(a [][]float64) float64 {
	var s float64
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			s += a[i][j] * a[i][j]
		}
	}
	return math.Sqrt(s)
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// ProjectOffset returns the coordinates of (p − origin) in the given
// orthonormal basis: out[k] = ⟨p − origin, basis[k]⟩.
func ProjectOffset(p, origin []float64, basis [][]float64) []float64 {
	diff := make([]float64, len(p))
	for i := range p {
		diff[i] = p[i] - origin[i]
	}
	out := make([]float64, len(basis))
	for k, b := range basis {
		out[k] = Dot(diff, b)
	}
	return out
}

// ProjectedDistance returns the Euclidean distance between p and origin
// measured inside the subspace spanned by the orthonormal basis — the
// projected energy metric of generalized projected clustering. It does
// not allocate for up to 64 dimensions.
func ProjectedDistance(p, origin []float64, basis [][]float64) float64 {
	var s float64
	var buf [64]float64
	var diff []float64
	if len(p) <= len(buf) {
		diff = buf[:len(p)]
	} else {
		diff = make([]float64, len(p))
	}
	for i := range p {
		diff[i] = p[i] - origin[i]
	}
	for _, b := range basis {
		d := Dot(diff, b)
		s += d * d
	}
	return math.Sqrt(s)
}

// RandomOrthonormal fills out with m orthonormal vectors of dimension d
// built by Gram–Schmidt over vectors produced by the gauss function
// (which must return iid standard normal variates). It panics if m > d.
func RandomOrthonormal(d, m int, gauss func() float64) [][]float64 {
	if m > d {
		panic(fmt.Sprintf("linalg: cannot build %d orthonormal vectors in %d dims", m, d))
	}
	basis := make([][]float64, 0, m)
	for len(basis) < m {
		v := make([]float64, d)
		for i := range v {
			v[i] = gauss()
		}
		for _, b := range basis {
			proj := Dot(v, b)
			for i := range v {
				v[i] -= proj * b[i]
			}
		}
		norm := math.Sqrt(Dot(v, v))
		if norm < 1e-9 {
			continue // degenerate draw; retry
		}
		for i := range v {
			v[i] /= norm
		}
		basis = append(basis, v)
	}
	return basis
}
