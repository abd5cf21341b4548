package clique

// Time-series instrumentation of the CLIQUE search: per-level
// candidate/dense counts and latency (indexed by lattice level), and
// per-block latency/throughput of the streamed block passes (indexed
// by block number within each named pass). Recording is strictly
// opt-in via Config.Series; a nil store resolves to nil handles whose
// appends no-op.

import (
	"proclus/internal/obs/series"
)

// Series names recorded by the CLIQUE search. Level series use the
// lattice level (subspace dimensionality) as X; block series carry a
// pass="name" label and use the 1-based block index as X.
const (
	SeriesLevelSeconds      = "clique_level_seconds"
	SeriesLevelCandidates   = "clique_level_candidates"
	SeriesLevelDense        = "clique_level_dense"
	SeriesBlockSeconds      = "clique_block_seconds"
	SeriesBlockPointsPerSec = "clique_block_points_per_sec"
)

// searcherSeries holds the search's pre-resolved level handles. A nil
// receiver disables everything.
type searcherSeries struct {
	store           *series.Store
	levelSeconds    *series.Series
	levelCandidates *series.Series
	levelDense      *series.Series
}

func newSearcherSeries(store *series.Store) *searcherSeries {
	if store == nil {
		return nil
	}
	return &searcherSeries{
		store:           store,
		levelSeconds:    store.Series(SeriesLevelSeconds, "wall time of each lattice level"),
		levelCandidates: store.Series(SeriesLevelCandidates, "candidate units generated per level"),
		levelDense:      store.Series(SeriesLevelDense, "dense units surviving per level"),
	}
}

// recordLevel appends one completed level's telemetry.
func (s *searcherSeries) recordLevel(level int, seconds float64, candidates, dense int) {
	if s == nil {
		return
	}
	x := float64(level)
	s.levelSeconds.Append(x, seconds)
	s.levelCandidates.Append(x, float64(candidates))
	s.levelDense.Append(x, float64(dense))
}

// blockSeries is one block pass's pre-resolved handle pair.
type blockSeries struct {
	seconds      *series.Series
	pointsPerSec *series.Series
}

// blocks resolves the handle pair for a named pass. A nil
// searcherSeries yields the zero pair.
func (s *searcherSeries) blocks(pass string) blockSeries {
	if s == nil {
		return blockSeries{}
	}
	l := series.L("pass", pass)
	return blockSeries{
		seconds:      s.store.Series(SeriesBlockSeconds, "per-block latency of a streamed pass", l),
		pointsPerSec: s.store.Series(SeriesBlockPointsPerSec, "per-block throughput of a streamed pass", l),
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
