package obs

import "sync/atomic"

// Counters aggregates the hot-path work counters of one run. The
// algorithms update them in per-worker batches (one atomic add per
// chunk of points), so keeping them always on costs a few nanoseconds
// per thousands of points — benchmark-verified under 2% on the
// assignment hot path (see BenchmarkAssign* in internal/core).
//
// Counters must not be copied after first use.
type Counters struct {
	// DistanceEvals counts point-to-point distance evaluations. It
	// always equals DistanceEvalsFull + DistanceEvalsAbandoned wherever
	// the split is credited.
	DistanceEvals atomic.Int64
	// DistanceEvalsFull counts evaluations that visited every
	// coordinate of their dimension set. Every clustering pass
	// evaluates in full, so wherever it is credited it equals
	// DistanceEvals.
	DistanceEvalsFull atomic.Int64
	// DistanceEvalsAbandoned counts evaluations an early-abandoning
	// kernel cut short once the partial sum proved the candidate could
	// not win. No clustering pass abandons, so it stays zero in every
	// run.
	DistanceEvalsAbandoned atomic.Int64
	// CoordsVisited counts the coordinates the distance evaluations
	// read: the Σ evals × |dims| product over every evaluation.
	CoordsVisited atomic.Int64
	// PointsScanned counts data-point visits by full-dataset passes
	// (assignment and outlier passes in PROCLUS, histogram and counting
	// passes in CLIQUE).
	PointsScanned atomic.Int64
	// DenseUnitProbes counts unit-membership lookups performed by
	// CLIQUE's counting passes.
	DenseUnitProbes atomic.Int64
	// DistCacheHits counts full-dimensional distances the incremental
	// hill-climb engine reads from PROCLUS's candidate table instead of
	// evaluating: k·N point ranks and k·(k−1) medoid-to-medoid
	// distances per scored trial — work the naive evaluation
	// recomputes. A trial that repeats a medoid list its restart has
	// already scored runs no engine pass and counts nothing.
	DistCacheHits atomic.Int64
	// DistCacheRecomputes counts the full-dimensional distances the
	// candidate table evaluates once per run: N·C between points and
	// the C candidate medoids and C·(C−1) between candidates. Every
	// recompute is also a DistanceEvals evaluation.
	DistCacheRecomputes atomic.Int64
	// StreamBlocks counts blocks delivered by out-of-core passes over a
	// PointSource (zero for fully in-memory runs). Streamed PROCLUS's
	// read of its sample by position counts as one block.
	StreamBlocks atomic.Int64
	// StreamBytes counts the encoded point bytes those blocks and reads
	// carried.
	StreamBytes atomic.Int64
}

// Snapshot returns a plain-integer copy of the counters. A nil
// receiver yields the zero Snapshot.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		DistanceEvals:          c.DistanceEvals.Load(),
		DistanceEvalsFull:      c.DistanceEvalsFull.Load(),
		DistanceEvalsAbandoned: c.DistanceEvalsAbandoned.Load(),
		CoordsVisited:          c.CoordsVisited.Load(),
		PointsScanned:          c.PointsScanned.Load(),
		DenseUnitProbes:        c.DenseUnitProbes.Load(),
		DistCacheHits:          c.DistCacheHits.Load(),
		DistCacheRecomputes:    c.DistCacheRecomputes.Load(),
		StreamBlocks:           c.StreamBlocks.Load(),
		StreamBytes:            c.StreamBytes.Load(),
	}
}

// Snapshot is the immutable, JSON-ready copy of Counters embedded in
// Stats records and run reports.
type Snapshot struct {
	DistanceEvals int64 `json:"distance_evals"`
	// The full/abandoned split and the coordinate count stay zero for
	// algorithms that compute no distances (CLIQUE); omitempty keeps
	// their reports byte-stable, and drops the abandoned count, which
	// no clustering pass credits.
	DistanceEvalsFull      int64 `json:"distance_evals_full,omitempty"`
	DistanceEvalsAbandoned int64 `json:"distance_evals_abandoned,omitempty"`
	CoordsVisited          int64 `json:"coords_visited,omitempty"`
	PointsScanned          int64 `json:"points_scanned"`
	DenseUnitProbes        int64 `json:"dense_unit_probes"`
	// DistCacheHits and DistCacheRecomputes stay zero under naive
	// evaluation; omitempty keeps pre-cache reports byte-stable.
	DistCacheHits       int64 `json:"distcache_hits,omitempty"`
	DistCacheRecomputes int64 `json:"distcache_recomputes,omitempty"`
	// StreamBlocks and StreamBytes stay zero for in-memory runs;
	// omitempty keeps their reports byte-stable too.
	StreamBlocks int64 `json:"stream_blocks,omitempty"`
	StreamBytes  int64 `json:"stream_bytes,omitempty"`
}

// Merge adds o's counts into s, for aggregating several runs into one
// total (e.g. across an experiment's repeats).
func (s *Snapshot) Merge(o Snapshot) {
	s.DistanceEvals += o.DistanceEvals
	s.DistanceEvalsFull += o.DistanceEvalsFull
	s.DistanceEvalsAbandoned += o.DistanceEvalsAbandoned
	s.CoordsVisited += o.CoordsVisited
	s.PointsScanned += o.PointsScanned
	s.DenseUnitProbes += o.DenseUnitProbes
	s.DistCacheHits += o.DistCacheHits
	s.DistCacheRecomputes += o.DistCacheRecomputes
	s.StreamBlocks += o.StreamBlocks
	s.StreamBytes += o.StreamBytes
}
