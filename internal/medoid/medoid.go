// Package medoid implements a full-dimensional K-Medoids clusterer in
// the style of CLARANS (Ng & Han, VLDB 1994), the algorithm whose hill
// climbing PROCLUS generalizes (paper §2). It serves two purposes here:
// as the full-dimensional baseline motivating projected clustering
// (§1, Figure 1 — full-dimensional methods cannot separate clusters
// that exist in different subspaces), and as an ablation reference for
// the benchmark harness.
//
// The descent keeps, for every point, its nearest and second-nearest
// medoid, the FastCLARANS bookkeeping of Schubert & Rousseeuw ("Faster
// k-Medoids Clustering", arXiv:1810.05691). A swap attempt then
// evaluates only the candidate against each point, and only an
// accepted swap evaluates every point against every medoid again.
package medoid

import (
	"fmt"
	"math"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/obs"
	"proclus/internal/randx"
	"proclus/internal/sample"
)

// Config parameterizes a CLARANS-style run.
type Config struct {
	// K is the number of clusters. Required.
	K int
	// MaxNeighbors is the number of random swap attempts examined from
	// the current node before declaring it a local minimum. Zero means
	// DefaultMaxNeighbors; a negative value is rejected.
	MaxNeighbors int
	// Restarts is the number of independent local searches; the best
	// local minimum wins. Zero means DefaultRestarts (the CLARANS
	// paper's numlocal); a negative value is rejected.
	Restarts int
	// Distance is the full-dimensional metric; default Manhattan
	// segmental (Manhattan / d), matching PROCLUS's scale.
	Distance dist.Func
	// Seed drives all randomness.
	Seed uint64
}

// The values Run substitutes for a zero MaxNeighbors and Restarts.
const (
	DefaultMaxNeighbors = 50
	DefaultRestarts     = 2
)

func (cfg Config) withDefaults() Config {
	if cfg.MaxNeighbors == 0 {
		cfg.MaxNeighbors = DefaultMaxNeighbors
	}
	if cfg.Restarts == 0 {
		cfg.Restarts = DefaultRestarts
	}
	if cfg.Distance == nil {
		cfg.Distance = dist.SegmentalAll
	}
	return cfg
}

// Result is a full-dimensional clustering.
type Result struct {
	// Medoids holds the dataset indices of the k medoids.
	Medoids []int
	// Assignments maps each point to its cluster (index into Medoids).
	Assignments []int
	// Cost is the sum over points of the distance to their medoid.
	Cost float64
	// Stats carries the run's work counters, aggregated over every
	// restart. They tally two kinds of pass: a swap pass, one per swap
	// attempt whether accepted or not, evaluates the candidate against
	// every point (n evaluations); a refill, one per restart and one
	// per accepted swap, evaluates every point against every medoid
	// (n·k). The passes are serial, so the tallies are exact: every
	// evaluation reads the whole row, d coordinates.
	Stats Stats
}

// Stats records a run's measurable work.
type Stats struct {
	Counters obs.Snapshot
}

// Run clusters ds into cfg.K full-dimensional clusters.
func Run(ds *dataset.Dataset, cfg Config) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	switch {
	case cfg.K <= 0:
		return nil, fmt.Errorf("medoid: K = %d must be positive", cfg.K)
	case cfg.MaxNeighbors < 0:
		return nil, fmt.Errorf("medoid: MaxNeighbors = %d must be positive", cfg.MaxNeighbors)
	case cfg.Restarts < 0:
		return nil, fmt.Errorf("medoid: Restarts = %d must be positive", cfg.Restarts)
	case ds.Len() < cfg.K:
		return nil, fmt.Errorf("medoid: %d points cannot form %d clusters", ds.Len(), cfg.K)
	}
	rng := randx.New(cfg.Seed)
	var counters obs.Counters
	var best *Result
	for restart := 0; restart < cfg.Restarts; restart++ {
		res, err := localSearch(ds, cfg, rng, &counters)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Cost < best.Cost {
			best = res
		}
	}
	best.Stats = Stats{Counters: counters.Snapshot()}
	return best, nil
}

// localSearch runs one CLARANS descent: start from random medoids and
// follow improving random swaps until MaxNeighbors successive attempts
// fail.
func localSearch(ds *dataset.Dataset, cfg Config, rng *randx.Rand, counters *obs.Counters) (*Result, error) {
	n := ds.Len()
	medoids, err := sample.WithoutReplacement(rng, n, cfg.K)
	if err != nil {
		return nil, fmt.Errorf("medoid: initial medoids: %w", err)
	}
	s := descent{
		ds: ds, metric: cfg.Distance, counters: counters,
		pts: make([][]float64, cfg.K),
		n1:  make([]int, n), d1: make([]float64, n), d2: make([]float64, n),
	}
	isMedoid := make([]bool, n)
	for i, m := range medoids {
		s.pts[i] = ds.Point(m)
		isMedoid[m] = true
	}
	cost := s.refill()
	failures := 0
	for failures < cfg.MaxNeighbors {
		// Random neighbour: swap one random medoid for a random
		// non-medoid.
		pos := rng.Intn(cfg.K)
		cand := rng.Intn(n)
		if isMedoid[cand] {
			failures++
			continue
		}
		if s.swapCost(pos, ds.Point(cand)) < cost {
			isMedoid[medoids[pos]] = false
			isMedoid[cand] = true
			medoids[pos] = cand
			s.pts[pos] = ds.Point(cand)
			cost = s.refill()
			failures = 0
		} else {
			failures++
		}
	}
	return &Result{Medoids: medoids, Assignments: s.n1, Cost: cost}, nil
}

// descent is one local search's view of the current medoids: their
// rows, and for every point p the position n1[p] of its nearest
// medoid, the distance d1[p] to it and the distance d2[p] to its
// second nearest (+Inf when K is 1).
type descent struct {
	ds       *dataset.Dataset
	metric   dist.Func
	counters *obs.Counters
	pts      [][]float64
	n1       []int
	d1, d2   []float64
}

// refill recomputes n1, d1 and d2 from every medoid, n·k evaluations,
// and returns the total cost. Ties break toward the lower medoid
// position for determinism, so n1 is the assignment.
func (s *descent) refill() float64 {
	var cost float64
	for p := range s.n1 {
		pt := s.ds.Point(p)
		n1, e1, e2 := 0, math.Inf(1), math.Inf(1)
		for i, m := range s.pts {
			if dd := s.metric(pt, m); dd < e1 {
				n1, e1, e2 = i, dd, e1
			} else if dd < e2 {
				e2 = dd
			}
		}
		s.n1[p], s.d1[p], s.d2[p] = n1, e1, e2
		cost += e1
	}
	n, k, dims := int64(len(s.n1)), int64(len(s.pts)), int64(s.ds.Dims())
	s.counters.PointsScanned.Add(n)
	s.counters.DistanceEvals.Add(n * k)
	s.counters.DistanceEvalsFull.Add(n * k)
	s.counters.CoordsVisited.Add(n * k * dims)
	return cost
}

// swapCost returns the total cost the medoids would have with the one
// at position pos replaced by the row cand, one evaluation per point,
// and changes nothing. Each point keeps the nearer of cand and its
// nearest remaining medoid: d2 when the medoid leaving is its nearest,
// d1 otherwise. That minimum is the value a full reassignment would
// find, whatever the tie-break, and the points add up in the same
// order, so the cost has the same bits.
func (s *descent) swapCost(pos int, cand []float64) float64 {
	var cost float64
	for p, n1 := range s.n1 {
		best := s.d1[p]
		if n1 == pos {
			best = s.d2[p]
		}
		if dc := s.metric(s.ds.Point(p), cand); dc < best {
			best = dc
		}
		cost += best
	}
	n, dims := int64(len(s.n1)), int64(s.ds.Dims())
	s.counters.PointsScanned.Add(n)
	s.counters.DistanceEvals.Add(n)
	s.counters.DistanceEvalsFull.Add(n)
	s.counters.CoordsVisited.Add(n * dims)
	return cost
}
