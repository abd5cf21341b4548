// Package core implements PROCLUS, the projected clustering algorithm of
// Aggarwal, Procopiuc, Wolf, Yu and Park ("Fast Algorithms for Projected
// Clustering", SIGMOD 1999).
//
// PROCLUS partitions N points in d dimensions into k clusters plus an
// outlier set, and associates with every cluster its own subset of
// dimensions in which the cluster's points correlate. It proceeds in
// three phases (paper §2):
//
//  1. Initialization — draw a random sample of size A·k, then thin it to
//     B·k candidate medoids by greedy farthest-first traversal, so the
//     candidates likely pierce every natural cluster.
//  2. Iterative phase — hill-climb over k-subsets of the candidates. For
//     each trial set of medoids, determine each medoid's locality (the
//     points within its distance to the nearest other medoid), derive
//     per-medoid dimension sets from the locality statistics, assign all
//     points by Manhattan segmental distance, score the clustering, and
//     replace the "bad" medoids of the best set seen so far.
//  3. Refinement — recompute dimension sets once from the best
//     clustering's actual clusters, reassign, and mark outliers that
//     fall outside every medoid's sphere of influence.
package core

import (
	"fmt"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/obs/series"
)

// Config holds the PROCLUS parameters. K and L are the two inputs the
// paper exposes to users; the rest default to sensible values matching
// the paper's description when left zero.
type Config struct {
	// K is the number of clusters to find. Required.
	K int
	// L is the average number of dimensions per cluster. The total
	// dimension budget is K·L, with at least 2 dimensions per cluster,
	// so L must be at least 2. Required.
	L int

	// SampleFactor is the paper's constant A: the initialization phase
	// draws a uniform sample of A·K points. Default 30.
	SampleFactor int
	// MedoidFactor is the paper's constant B: greedy farthest-first
	// reduces the sample to B·K candidate medoids. Default 10. (The
	// paper leaves B unspecified; small pools frequently miss a natural
	// cluster entirely, since full-dimensional distances barely
	// distinguish projected clusters from noise, making candidate
	// selection near-proportional to cluster size.)
	MedoidFactor int
	// Restarts is the number of independent hill climbs; the best local
	// minimum wins. The PROCLUS hill climb is modeled on CLARANS, whose
	// numlocal parameter plays exactly this role; restarts rescue runs
	// whose single climb lands on a split of one large cluster, a local
	// minimum the bad-medoid replacement cannot leave. Default 5.
	Restarts int
	// MinDeviation is the fraction of the average cluster size N/K
	// below which a cluster's medoid is declared bad. Default 0.1.
	MinDeviation float64
	// MaxNoImprove terminates the hill climb after this many successive
	// trials without improving the objective. Default 20.
	MaxNoImprove int
	// MaxIterations caps the total number of hill-climbing trials as a
	// safety net. Default 500.
	MaxIterations int
	// Seed drives all randomness; runs with equal seeds and inputs
	// produce identical results.
	Seed uint64
	// Workers bounds the total number of goroutines used across the
	// run: greedy initialization, concurrent hill-climb restarts (each
	// on its own deterministic sub-stream of Seed), the per-trial
	// locality/dimension/assignment passes, and the refinement passes.
	// Values below 1 select GOMAXPROCS. The result — medoids,
	// assignments, dimension sets and the run report's objective trace —
	// is bit-identical for any worker count.
	Workers int

	// Observer receives structured run events: run start/end, phase
	// transitions, restart boundaries, hill-climbing iterations and
	// medoid replacements. Nil — the default — disables event emission
	// entirely; hot-path counters are still collected (batched per
	// worker chunk) at negligible cost so Stats.Counters is always
	// populated. Attach obs.NewJSONTracer, obs.NewProgressLogger, or
	// several at once via obs.Multi. The observer must be safe for
	// concurrent use and does not participate in the algorithm: runs
	// with and without one produce identical Results. When Workers
	// permits several restarts to run at once, their restart and
	// iteration events interleave in wall-clock order; the run report,
	// built from Stats, stays in restart order regardless.
	Observer obs.Observer

	// Series, when non-nil, is the time-series store the run records
	// its convergence trajectories into: per-iteration objective, best,
	// swap acceptance, bad-medoid count and distance-cache hit rate
	// (one series set per restart), plus per-block latency and
	// throughput on streamed runs. Recording is strictly opt-in, so
	// uninstrumented runs pay nothing and Stats.Series stays empty.
	// Like the Observer, the store does not participate in the
	// algorithm: runs with and without one produce identical Results.
	Series *series.Store
}

func (cfg Config) withDefaults() Config {
	if cfg.SampleFactor == 0 {
		cfg.SampleFactor = 30
	}
	if cfg.MedoidFactor == 0 {
		cfg.MedoidFactor = 10
	}
	if cfg.Restarts == 0 {
		cfg.Restarts = 5
	}
	if cfg.MinDeviation == 0 {
		cfg.MinDeviation = 0.1
	}
	if cfg.MaxNoImprove == 0 {
		cfg.MaxNoImprove = 20
	}
	if cfg.MaxIterations == 0 {
		cfg.MaxIterations = 500
	}
	return cfg
}

func (cfg Config) validate(ds *dataset.Dataset) error {
	return cfg.validateShape(ds.Len(), ds.Dims())
}

// validateShape checks the configuration against a dataset shape. The
// streamed entry point shares it with validate: a PointSource exposes
// only its shape, not a *Dataset.
func (cfg Config) validateShape(n, dims int) error {
	switch {
	case cfg.K <= 0:
		return fmt.Errorf("proclus: K = %d must be positive", cfg.K)
	case cfg.L < 2:
		return fmt.Errorf("proclus: L = %d must be at least 2 (every cluster needs ≥2 dimensions)", cfg.L)
	case cfg.L > dims:
		return fmt.Errorf("proclus: L = %d exceeds the %d-dimensional space", cfg.L, dims)
	case cfg.SampleFactor < 1:
		return fmt.Errorf("proclus: SampleFactor = %d must be positive", cfg.SampleFactor)
	case cfg.MedoidFactor < 1:
		return fmt.Errorf("proclus: MedoidFactor = %d must be positive", cfg.MedoidFactor)
	case cfg.MedoidFactor > cfg.SampleFactor:
		return fmt.Errorf("proclus: MedoidFactor %d exceeds SampleFactor %d", cfg.MedoidFactor, cfg.SampleFactor)
	case cfg.Restarts < 0:
		return fmt.Errorf("proclus: negative Restarts %d", cfg.Restarts)
	case cfg.MinDeviation < 0 || cfg.MinDeviation >= 1:
		return fmt.Errorf("proclus: MinDeviation = %v outside [0, 1)", cfg.MinDeviation)
	case n < cfg.K:
		return fmt.Errorf("proclus: %d points cannot form %d clusters", n, cfg.K)
	case cfg.K > maxCandidates/cfg.MedoidFactor && n > maxCandidates:
		// C = min(MedoidFactor·K, N) > maxCandidates, tested without
		// forming the product, which could overflow.
		return fmt.Errorf("proclus: MedoidFactor = %d and K = %d select more than %d candidate medoids, the hill climb's limit",
			cfg.MedoidFactor, cfg.K, maxCandidates)
	}
	return nil
}

// Cluster describes one projected cluster in a Result.
type Cluster struct {
	// Medoid is the dataset index of the cluster's medoid.
	Medoid int
	// Dimensions is the ascending set of dimensions associated with the
	// cluster.
	Dimensions []int
	// Members holds the dataset indices assigned to the cluster,
	// ascending. Outliers appear in no cluster.
	Members []int
	// Centroid is the coordinate-wise mean of the members (equal to the
	// medoid's coordinates when the cluster is empty).
	Centroid []float64
}

// Result is the output of a PROCLUS run: a (k+1)-way partition of the
// points (k clusters plus outliers) and each cluster's dimension set.
type Result struct {
	// Clusters holds the k projected clusters.
	Clusters []Cluster
	// Assignments maps every dataset index to its cluster index, or
	// OutlierID for outliers.
	Assignments []int
	// Objective is the final value of the paper's quality measure: the
	// average Manhattan segmental distance of points to their cluster
	// centroids, weighted by cluster size.
	Objective float64
	// Iterations is the number of hill-climbing trials evaluated.
	Iterations int
	// Seed is the effective seed the run used. Re-running with the
	// same data, configuration and this seed reproduces the result
	// exactly, so any run can be replayed from its report.
	Seed uint64
	// Config echoes the effective configuration (defaults applied) in
	// the JSON-safe form embedded in run reports.
	Config ConfigReport
	// Stats records phase timings, counters and the hill-climbing
	// trace.
	Stats Stats
}

// Stats is the observability record of one PROCLUS run.
type Stats struct {
	// InitDuration covers sampling and greedy candidate selection.
	InitDuration time.Duration
	// IterateDuration covers all hill-climbing trials and restarts.
	IterateDuration time.Duration
	// RefineDuration covers the final dimension recomputation,
	// reassignment and outlier pass.
	RefineDuration time.Duration
	// ObjectiveTrace holds the objective of every evaluated trial in
	// order, across restarts. The running minimum is the hill climb's
	// progress curve.
	ObjectiveTrace []float64
	// Restarts breaks IterateDuration down per hill-climb restart, in
	// order.
	Restarts []RestartStats
	// Counters snapshots the run's hot-path counters (distance
	// evaluations, points scanned by assignment passes).
	Counters obs.Snapshot
	// Series snapshots the time-series store at run end: per-iteration
	// convergence trajectories and per-block latencies. Nil unless a
	// store was attached via Config.Series.
	Series series.StoreSnapshot
	// DatasetPoints and DatasetDims record the input's shape, so a
	// Result can describe its provenance in run reports.
	DatasetPoints int
	DatasetDims   int
}

// RestartStats describes one hill-climb restart.
type RestartStats struct {
	// Iterations is the number of trials the restart evaluated.
	Iterations int
	// BestObjective is the lowest objective the restart reached.
	BestObjective float64
	// Duration is the restart's wall time.
	Duration time.Duration
}

// OutlierID is the assignment value of points classified as outliers.
const OutlierID = -1

// NumOutliers returns the number of points assigned to no cluster.
func (r *Result) NumOutliers() int {
	n := 0
	for _, a := range r.Assignments {
		if a == OutlierID {
			n++
		}
	}
	return n
}
