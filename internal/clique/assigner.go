package clique

import "fmt"

// PointAssigner locates individual points in a completed run's grid and
// assigns each to one cluster under the partition-view preference
// (higher subspace dimensionality, then larger cluster, then lower
// index). It needs only the Result — the grid is rebuilt from the
// recorded bounds — so it works for streamed runs where the dataset was
// never resident, and it is what the algorithm registry's CLIQUE model
// serves Assign from.
type PointAssigner struct {
	res   *Result
	g     *grid
	index []subspaceClusters
}

// NewPointAssigner builds an assigner from a completed run's result.
func NewPointAssigner(res *Result) (*PointAssigner, error) {
	if len(res.GridMin) == 0 || len(res.GridMin) != len(res.GridMax) {
		return nil, fmt.Errorf("clique: result carries no grid bounds (produced by an older run?)")
	}
	return newPointAssigner(res, newGridBounds(res.GridMin, res.GridMax, res.xi())), nil
}

func newPointAssigner(res *Result, g *grid) *PointAssigner {
	return &PointAssigner{res: res, g: g, index: indexClusters(res.Clusters, g.xi)}
}

// Dims returns the dimensionality of points the assigner accepts.
func (a *PointAssigner) Dims() int { return len(a.g.min) }

// Assign returns the index of the preferred cluster covering p, or -1
// when no cluster's dense units contain it. For points of the fitted
// dataset the answer matches PartitionView entry for entry; out-of-
// domain coordinates clamp into the boundary intervals, exactly as the
// streamed counting passes treat them. Assign does not allocate.
func (a *PointAssigner) Assign(p []float64) int {
	if len(p) != a.Dims() {
		return -1
	}
	best := -1
	for _, sc := range a.index {
		ci, ok := sc.units[a.g.key(sc.dims, p)]
		if ok && (best == -1 || a.res.prefer(ci, best)) {
			best = ci
		}
	}
	return best
}
