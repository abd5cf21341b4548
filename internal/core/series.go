package core

// Time-series instrumentation of the PROCLUS engines. The hill climb
// records one series set per restart — objective, running best, swap
// acceptance, bad-medoid count and distance-cache hit rate, indexed by
// iteration — and every pass records per-block latency and throughput,
// indexed by block number within the pass: the candidate-table build,
// one block in every run, and the streamed engine's passes. Recording is
// strictly opt-in (Config.Series); a nil store resolves to nil handles
// whose appends no-op, and the climb additionally skips the whole
// record call when no store is attached, so the uninstrumented hot
// path is untouched.

import (
	"strconv"

	"proclus/internal/obs/series"
)

// Series names recorded by the PROCLUS engines. Per-iteration series
// carry a restart="N" label and use the iteration number as X;
// per-block series carry a pass="name" label and use the 1-based block
// index as X.
const (
	SeriesIterObjective     = "proclus_iter_objective"
	SeriesIterBest          = "proclus_iter_best"
	SeriesIterAccepted      = "proclus_iter_accepted"
	SeriesIterBadMedoids    = "proclus_iter_bad_medoids"
	SeriesIterCacheHitRate  = "proclus_iter_cache_hit_rate"
	SeriesBlockSeconds      = "proclus_block_seconds"
	SeriesBlockPointsPerSec = "proclus_block_points_per_sec"
)

// runnerSeries owns the store handle resolution for one run. A nil
// receiver disables everything.
type runnerSeries struct {
	store *series.Store
}

// newRunnerSeries wraps a store; a nil store yields a nil wrapper, the
// disabled fast path the climb guards on.
func newRunnerSeries(store *series.Store) *runnerSeries {
	if store == nil {
		return nil
	}
	return &runnerSeries{store: store}
}

// restartSeries is one restart's pre-resolved handle set. Handles are
// looked up once before the climb starts, so the per-iteration record
// is five ring appends with no map traffic.
type restartSeries struct {
	objective  *series.Series
	best       *series.Series
	accepted   *series.Series
	badMedoids *series.Series
	cacheHit   *series.Series
}

// restart resolves the handle set for a 1-based restart index. A nil
// runnerSeries yields the zero set (nil handles, no-op appends).
func (s *runnerSeries) restart(idx int) restartSeries {
	if s == nil {
		return restartSeries{}
	}
	l := series.L("restart", strconv.Itoa(idx))
	return restartSeries{
		objective:  s.store.Series(SeriesIterObjective, "objective of each hill-climb trial", l),
		best:       s.store.Series(SeriesIterBest, "running best objective", l),
		accepted:   s.store.Series(SeriesIterAccepted, "1 when the trial improved the best, else 0", l),
		badMedoids: s.store.Series(SeriesIterBadMedoids, "bad medoids in the current best trial", l),
		cacheHit:   s.store.Series(SeriesIterCacheHitRate, "fraction of projected-distance columns served from the cache", l),
	}
}

// record appends one iteration's points across the set.
func (rs *restartSeries) record(iteration int, objective, best float64, improved bool, badMedoids int, hitRate float64) {
	x := float64(iteration)
	rs.objective.Append(x, objective)
	rs.best.Append(x, best)
	accepted := 0.0
	if improved {
		accepted = 1.0
	}
	rs.accepted.Append(x, accepted)
	rs.badMedoids.Append(x, float64(badMedoids))
	rs.cacheHit.Append(x, hitRate)
}

// blockSeries is one pass's pre-resolved handle pair.
type blockSeries struct {
	seconds      *series.Series
	pointsPerSec *series.Series
}

// blocks resolves the handle pair for a named pass. A nil runnerSeries
// yields the zero pair.
func (s *runnerSeries) blocks(pass string) blockSeries {
	if s == nil {
		return blockSeries{}
	}
	l := series.L("pass", pass)
	return blockSeries{
		seconds:      s.store.Series(SeriesBlockSeconds, "per-block latency of a pass", l),
		pointsPerSec: s.store.Series(SeriesBlockPointsPerSec, "per-block throughput of a pass", l),
	}
}

// record appends one block's latency and throughput.
func (bs *blockSeries) record(block, points int, seconds float64) {
	x := float64(block)
	bs.seconds.Append(x, seconds)
	if seconds > 0 {
		bs.pointsPerSec.Append(x, float64(points)/seconds)
	}
}
