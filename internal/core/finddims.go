package core

import (
	"math"

	"proclus/internal/alloc"
	"proclus/internal/parallel"
)

// findDimensions implements the FindDimensions procedure (paper Figure
// 4). For each medoid i, groups[i] lists the points whose distribution
// determines the medoid's dimensions — localities during the iterative
// phase, actual clusters during refinement.
//
// For each medoid it computes X_{i,j}, the mean absolute difference to
// the medoid along dimension j over the group, standardizes each row to
// Z_{i,j} = (X_{i,j} − Y_i)/σ_i, and selects the K·L globally smallest
// Z values subject to at least two per medoid via the separable convex
// resource allocation greedy. Strongly negative Z_{i,j} means the group
// is much tighter along j than its average spread — exactly the
// signature of a cluster dimension.
func (r *runner) findDimensions(medoids []int, groups [][]int) [][]int {
	k := len(medoids)

	// One Z row per medoid, each an independent scan of that medoid's
	// group: disjoint writes, and each row's float accumulation stays
	// serial inside zRow, so results are identical for any worker count.
	z := make([][]float64, k)
	parallel.For(k, r.innerWorkers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			z[i] = r.zRow(medoids[i], groups[i])
		}
	})

	dims, err := alloc.PickSmallest(z, r.cfg.K*r.cfg.L, 2)
	if err != nil {
		// Unreachable for validated configs (2 ≤ L ≤ d guarantees
		// k·2 ≤ k·L ≤ k·d), but fail loudly rather than cluster wrongly.
		panic("proclus: dimension allocation failed: " + err.Error())
	}
	return dims
}

// zRow computes the standardized Z scores of one medoid's group. An
// empty or singleton group, or a group with identical spread on every
// dimension (σ = 0), yields an all-zero row: no dimension is then
// preferable and the allocator's deterministic tie-breaking applies.
func (r *runner) zRow(medoid int, group []int) []float64 {
	d := r.ds.Dims()
	return r.zRowInto(medoid, group, make([]float64, d), make([]float64, d))
}

// zRowInto is zRow writing into caller-owned buffers: x accumulates the
// per-dimension mean absolute differences and z receives the
// standardized row. Both must have length ds.Dims(); the incremental
// engine reuses them across hill-climb iterations.
//
// The accumulation folds four group points per pass over the
// dimensions, x[j] + a0 + a1 + a2 + a3 evaluated left to right, so
// each x[j] receives the same additions in the same order as one point
// at a time; the remaining points then fold singly.
func (r *runner) zRowInto(medoid int, group []int, x, z []float64) []float64 {
	d := r.ds.Dims()
	clear(x)
	clear(z)
	m := r.ds.Point(medoid)[:len(x)]
	g := group
	for ; len(g) >= 4; g = g[4:] {
		p0 := r.ds.Point(g[0])[:len(x)]
		p1 := r.ds.Point(g[1])[:len(x)]
		p2 := r.ds.Point(g[2])[:len(x)]
		p3 := r.ds.Point(g[3])[:len(x)]
		for j := range x {
			mj := m[j]
			x[j] = x[j] + math.Abs(p0[j]-mj) + math.Abs(p1[j]-mj) + math.Abs(p2[j]-mj) + math.Abs(p3[j]-mj)
		}
	}
	for _, p := range g {
		pt := r.ds.Point(p)[:len(x)]
		for j := range x {
			x[j] += math.Abs(pt[j] - m[j])
		}
	}
	count := len(group)
	if count == 0 {
		return z
	}
	inv := 1 / float64(count)
	var mean float64
	for j := range x {
		x[j] *= inv
		mean += x[j]
	}
	mean /= float64(d)
	var variance float64
	for j := range x {
		dev := x[j] - mean
		variance += dev * dev
	}
	if d > 1 {
		variance /= float64(d - 1)
	}
	sigma := math.Sqrt(variance)
	if sigma == 0 {
		return z
	}
	for j := range x {
		z[j] = (x[j] - mean) / sigma
	}
	return z
}
