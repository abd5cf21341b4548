package core

// The candidate table. The hill climb (§2.2, Figure 2) only ever swaps
// medoids among the C = min(B·K, N) candidates chosen at
// initialization, so every full-dimensional distance a trial needs —
// δ_i, medoid i's distance to its nearest other medoid, and the
// locality test "point p lies strictly within δ_i of medoid i" — is a
// function of the candidates and the points alone. The table computes
// those distances once per run, before any restart starts; every trial
// of every restart reads it and evaluates no full-dimensional distance.
//
// Instead of N·C float64 distances the table keeps, for each candidate
// a, the ascending list T_a of a's C−1 distances to the other
// candidates followed by a +Inf sentinel, and for each point p the rank
// of p's distance to c_a within it:
//
//	rank_a[p] = #{t ∈ T_a : t ≤ SegmentalAll(p, c_a)},
//
// two bytes a point instead of eight. A locality radius δ_i is always
// an element of T_a (the distance to another candidate), or +Inf when
// k = 1, and for such a radius
//
//	SegmentalAll(p, c_a) < δ_i  ⟺  rank_a[p] ≤ #{t ∈ T_a : t < δ_i}:
//
// a point closer than δ_i passes only thresholds below δ_i, while a
// point at δ_i or farther also passes δ_i itself. δ_i = 0 (coinciding
// candidates) gives the empty locality, and at δ_i = +Inf the sentinel
// keeps a point whose distance overflowed to +Inf out, exactly as the
// strict test does. The localities, and so everything computed from
// them, are those of a scan that evaluates the strict test directly.

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/parallel"
)

// maxCandidates is the largest candidate count whose ranks, at most C,
// fit the table's uint16 entries.
const maxCandidates = math.MaxUint16

// candidateTable is the read-only distance table of one run's
// candidates, shared by every restart's engine.
type candidateTable struct {
	n, c int
	// index maps a candidate's dataset index to its row a.
	index map[int]int
	// dist is C×C: dist[a·C+b] = SegmentalAll(c_a, c_b). The diagonal
	// is never read and stays 0.
	dist []float64
	// thresholds is C×C: row a is T_a, ascending, +Inf last.
	thresholds []float64
	// rank is C×N: rank[a·N+p] = #{t ∈ T_a : t ≤ SegmentalAll(p, c_a)}.
	rank []uint16
}

// newCandidateTable builds the table of candidates, distinct dataset
// indices into r.ds, filling the ranks in one pass over the points on
// workers goroutines. It credits every distance it evaluates — C·(C−1)
// between candidates and N·C between points and candidates — as
// evaluations and as distance-cache recomputes.
func (r *runner) newCandidateTable(candidates []int, workers int) *candidateTable {
	n, c, d := r.ds.Len(), len(candidates), r.ds.Dims()
	t := &candidateTable{
		n: n, c: c,
		index:      make(map[int]int, c),
		dist:       make([]float64, c*c),
		thresholds: make([]float64, c*c),
		rank:       make([]uint16, c*n),
	}
	pts := make([][]float64, c)
	for a, m := range candidates {
		t.index[m] = a
		pts[a] = r.ds.Point(m)
	}
	parallel.For(c, workers, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			row := t.dist[a*c : (a+1)*c]
			ts := t.thresholds[a*c : a*c : (a+1)*c]
			for b := range pts {
				if b != a {
					row[b] = dist.SegmentalAll(pts[a], pts[b])
					ts = append(ts, row[b])
				}
			}
			slices.Sort(ts)
			t.thresholds[(a+1)*c-1] = math.Inf(1)
		}
	})
	parallel.For(n, workers, func(lo, hi int) { t.fillRanks(r.ds, pts, lo, hi) })
	evals := int64(c)*int64(c-1) + int64(n)*int64(c)
	r.creditEvals(evals, evals*int64(d))
	r.counters.DistCacheRecomputes.Add(evals)
	return t
}

// fillRanks computes rank_a[p] for every candidate a and every point p
// in [lo, hi), a tile of assignTile points at a time: for each
// candidate, dist.SegmentalRows fills the tile's distances over all d
// dimensions, with the point's coordinates first, so every distance has
// SegmentalAll(point, c_a)'s bits.
func (t *candidateTable) fillRanks(ds *dataset.Dataset, pts [][]float64, lo, hi int) {
	n, d := t.n, ds.Dims()
	all := make([]int, d)
	for j := range all {
		all[j] = j
	}
	var col [assignTile]float64
	for t0 := lo; t0 < hi; t0 += assignTile {
		t1 := min(t0+assignTile, hi)
		seg := col[:t1-t0]
		for a, y := range pts {
			dist.SegmentalRows(seg, ds.Rows(t0, t1), d, nil, all, y)
			ts, ranks := t.row(a), t.rank[a*n+t0:a*n+t1]
			for q, v := range seg {
				ranks[q] = uint16(countAtMost(ts, v))
			}
		}
	}
}

// row returns T_a.
func (t *candidateTable) row(a int) []float64 {
	return t.thresholds[a*t.c : (a+1)*t.c]
}

// slot returns the table row of the candidate at dataset index m. Only
// candidates ever become medoids, so a miss is a bug.
func (t *candidateTable) slot(m int) int {
	a, ok := t.index[m]
	if !ok {
		panic(fmt.Sprintf("proclus: medoid %d is not a candidate", m))
	}
	return a
}

// locality appends to lst, in ascending order, every point p with
// SegmentalAll(p, c_a) < delta, where delta is c_a's distance to
// another candidate or +Inf, and returns the extended list.
func (t *candidateTable) locality(a int, delta float64, lst []int) []int {
	// q = #{t ∈ T_a : t < delta}: the index of T_a's first entry ≥ delta.
	q := uint16(sort.SearchFloat64s(t.row(a), delta))
	for p, r := range t.rank[a*t.n : (a+1)*t.n] {
		if r <= q {
			lst = append(lst, p)
		}
	}
	return lst
}

// countAtMost returns #{t ∈ ts : t ≤ x} for ascending ts.
func countAtMost(ts []float64, x float64) int {
	return sort.Search(len(ts), func(i int) bool { return ts[i] > x })
}
