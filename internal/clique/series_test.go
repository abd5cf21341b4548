package clique

// Tests for the CLIQUE time-series instrumentation: recording must not
// change the computation, the per-level trajectories must match the
// run's own level accounting, and streamed runs must record per-block
// telemetry that in-memory runs do not.

import (
	"context"
	"reflect"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/obs/series"
)

func TestCliqueSeriesDoesNotChangeResult(t *testing.T) {
	ds := obsDataset()

	plain, err := Run(ds, obsConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := obsConfig()
	cfg.Series = series.NewStore(0)
	cfg.Observer = obs.NewSpanBuilder()
	instrumented, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if instrumented.Stats.Series.Find(SeriesLevelSeconds) == nil {
		t.Fatal("instrumented run recorded no level series")
	}

	zeroCliqueTimings(plain)
	zeroCliqueTimings(instrumented)
	instrumented.Stats.Series = nil
	if !reflect.DeepEqual(plain, instrumented) {
		t.Errorf("telemetry changed the result:\nplain:        %+v\ninstrumented: %+v",
			plain, instrumented)
	}
}

// TestCliqueLevelSeriesContent checks the level trajectories against
// the result's own per-level dense-unit accounting: one point per
// completed level ≥ 2, indexed by the lattice level, with the dense
// series matching DenseBySubspaceDim.
func TestCliqueLevelSeriesContent(t *testing.T) {
	cfg := obsConfig()
	cfg.Series = series.NewStore(0)
	res, err := Run(obsDataset(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dense := res.Stats.Series.Find(SeriesLevelDense)
	cands := res.Stats.Series.Find(SeriesLevelCandidates)
	secs := res.Stats.Series.Find(SeriesLevelSeconds)
	if dense == nil || cands == nil || secs == nil {
		t.Fatalf("level series missing: dense=%v candidates=%v seconds=%v", dense, cands, secs)
	}
	if len(dense.Points) != len(secs.Points) || len(dense.Points) != len(cands.Points) {
		t.Fatalf("level series lengths diverge: %d/%d/%d",
			len(dense.Points), len(cands.Points), len(secs.Points))
	}
	if len(dense.Points) == 0 {
		t.Fatal("no levels recorded")
	}
	for i, p := range dense.Points {
		level := int(p.X)
		if level != i+2 {
			t.Fatalf("level point %d at x=%v, want %d", i, p.X, i+2)
		}
		if level < len(res.DenseBySubspaceDim) && float64(res.DenseBySubspaceDim[level]) != p.V {
			t.Errorf("level %d dense series %v, result %d", level, p.V, res.DenseBySubspaceDim[level])
		}
		if cands.Points[i].V < p.V {
			t.Errorf("level %d has more dense units (%v) than candidates (%v)",
				level, p.V, cands.Points[i].V)
		}
	}
}

// TestCliqueStreamSeriesRecordsBlocks checks that every streamed pass
// records block latency series and that in-memory runs record none.
func TestCliqueStreamSeriesRecordsBlocks(t *testing.T) {
	ds := obsDataset()
	cfg := obsConfig()
	cfg.Series = series.NewStore(0)
	res, err := RunStream(context.Background(), dataset.NewMemorySource(ds, 128), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"bounds", "histogram", "count", "sizes"} {
		if s := res.Stats.Series.Find(SeriesBlockSeconds, series.L("pass", pass)); s == nil || s.Total == 0 {
			t.Errorf("streamed pass %q recorded no block series", pass)
		}
	}

	mem := obsConfig()
	mem.Series = series.NewStore(0)
	if _, err := Run(ds, mem); err != nil {
		t.Fatal(err)
	}
	if s := mem.Series.Snapshot().Find(SeriesBlockSeconds, series.L("pass", "histogram")); s != nil {
		t.Error("in-memory run recorded streamed block series")
	}
}
