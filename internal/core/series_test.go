package core

// Tests for the convergence time-series instrumentation: recording
// series, building spans and running a watchdog must not change the
// computation by a single bit; the recorded trajectories must agree
// with the objective trace; and a watchdog-triggered cancellation must
// surface as a clean context error with the series recorded so far
// still readable from the caller-owned store.

import (
	"context"
	"errors"
	"io"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/obs/series"
)

// TestSeriesDoesNotChangeResult is the telemetry metamorphic test: a
// run with the full convergence instrumentation attached — series
// store, span builder, JSON tracer and a (non-cancelling) watchdog —
// must be bit-identical to the bare run.
func TestSeriesDoesNotChangeResult(t *testing.T) {
	ds := reportData(t)

	plain, err := Run(ds, reportConfigFixture())
	if err != nil {
		t.Fatal(err)
	}

	cfg := reportConfigFixture()
	cfg.Series = series.NewStore(0)
	spans := obs.NewSpanBuilder()
	cfg.Observer = obs.NewWatchdog(obs.WatchdogOptions{
		NoImprove: 5,
		Next:      obs.Multi(obs.NewJSONTracer(io.Discard), spans),
	})
	instrumented, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if instrumented.Stats.Series.Find(SeriesIterObjective, series.L("restart", "1")) == nil {
		t.Fatal("instrumented run recorded no iteration series")
	}
	if spans.Root() == nil {
		t.Fatal("span builder saw no events")
	}

	zeroStatsTimings(plain)
	zeroStatsTimings(instrumented)
	instrumented.Stats.Series = nil
	if !reflect.DeepEqual(plain, instrumented) {
		t.Errorf("telemetry changed the result:\nplain:        %+v\ninstrumented: %+v",
			plain, instrumented)
	}
}

// TestSeriesMatchesObjectiveTrace cross-checks the recorded iteration
// series against the run's own ObjectiveTrace: with a single restart
// the objective series is exactly the trace, the best series is the
// trace's running minimum, and the bounded series stay in range.
func TestSeriesMatchesObjectiveTrace(t *testing.T) {
	ds := reportData(t)
	cfg := reportConfigFixture()
	cfg.Restarts = 1
	cfg.Series = series.NewStore(0)
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Stats.Series
	label := series.L("restart", "1")

	obj := snap.Find(SeriesIterObjective, label)
	if obj == nil {
		t.Fatal("objective series missing")
	}
	trace := res.Stats.ObjectiveTrace
	if len(obj.Points) != len(trace) {
		t.Fatalf("objective series has %d points, trace %d", len(obj.Points), len(trace))
	}
	best := snap.Find(SeriesIterBest, label)
	if best == nil {
		t.Fatal("best series missing")
	}
	runningMin := trace[0]
	for i, p := range obj.Points {
		if p.X != float64(i+1) {
			t.Fatalf("objective point %d at x=%v, want %d", i, p.X, i+1)
		}
		if p.V != trace[i] {
			t.Fatalf("objective point %d = %v, trace %v", i, p.V, trace[i])
		}
		if trace[i] < runningMin {
			runningMin = trace[i]
		}
		if best.Points[i].V != runningMin {
			t.Fatalf("best point %d = %v, running min %v", i, best.Points[i].V, runningMin)
		}
	}

	for _, check := range []struct {
		name     string
		min, max float64
	}{
		{SeriesIterAccepted, 0, 1},
		{SeriesIterCacheHitRate, 0, 1},
	} {
		s := snap.Find(check.name, label)
		if s == nil {
			t.Fatalf("%s series missing", check.name)
		}
		if len(s.Points) != len(trace) {
			t.Fatalf("%s has %d points, want %d", check.name, len(s.Points), len(trace))
		}
		for i, p := range s.Points {
			if p.V < check.min || p.V > check.max {
				t.Fatalf("%s point %d = %v outside [%v, %v]", check.name, i, p.V, check.min, check.max)
			}
		}
	}
	if bad := snap.Find(SeriesIterBadMedoids, label); bad == nil {
		t.Fatalf("%s series missing", SeriesIterBadMedoids)
	}
}

// TestSeriesPerRestartLabels runs multiple restarts and checks each got
// its own labelled trajectory whose lengths sum to the full trace.
func TestSeriesPerRestartLabels(t *testing.T) {
	ds := reportData(t)
	cfg := reportConfigFixture()
	cfg.Series = series.NewStore(0)
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for r := 1; r <= cfg.Restarts; r++ {
		s := res.Stats.Series.Find(SeriesIterObjective, series.L("restart", strconv.Itoa(r)))
		if s == nil {
			t.Fatalf("restart %d has no objective series", r)
		}
		total += len(s.Points)
	}
	if total != len(res.Stats.ObjectiveTrace) {
		t.Errorf("per-restart series sum to %d points, trace has %d",
			total, len(res.Stats.ObjectiveTrace))
	}
}

// TestStreamSeriesRecordsBlocks checks the streamed engine's per-block
// telemetry: every streamed pass records latency and throughput series,
// and the in-memory engine records no streamed pass.
func TestStreamSeriesRecordsBlocks(t *testing.T) {
	ds := streamEquivalenceData(t)
	cfg := Config{K: 3, L: 3, Seed: 13, Series: series.NewStore(0)}
	res, err := RunStream(context.Background(), dataset.NewMemorySource(ds, 128), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"sample", "assign", "score"} {
		s := res.Stats.Series.Find(SeriesBlockSeconds, series.L("pass", pass))
		if s == nil || s.Total == 0 {
			t.Errorf("streamed pass %q recorded no block series", pass)
			continue
		}
		for i, p := range s.Points {
			if p.X != float64(int(s.Total)-len(s.Points)+i+1) {
				t.Errorf("pass %q block series x=%v at index %d", pass, p.X, i)
				break
			}
		}
	}

	mem := Config{K: 3, L: 3, Seed: 13, Series: series.NewStore(0)}
	if _, err := Run(ds, mem); err != nil {
		t.Fatal(err)
	}
	if s := mem.Series.Snapshot().Find(SeriesBlockSeconds, series.L("pass", "assign")); s != nil {
		t.Error("in-memory run recorded streamed block series")
	}
}

// TestCandidateTablePassSpan checks how Run and RunStream report the
// candidate-table build: as the one block of a "candidates" pass, which
// a span builder places under phase:iterate, and as one point of the
// pass's block series.
func TestCandidateTablePassSpan(t *testing.T) {
	ds := streamEquivalenceData(t)
	for _, stream := range []bool{false, true} {
		spans := obs.NewSpanBuilder()
		cfg := Config{K: 3, L: 3, Seed: 13, Observer: spans, Series: series.NewStore(0)}
		var res *Result
		var err error
		if stream {
			res, err = RunStream(context.Background(), dataset.NewMemorySource(ds, 128), cfg)
		} else {
			res, err = Run(ds, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		var passes []string
		spans.Root().Walk(func(s *obs.Span) {
			if s.Kind != obs.SpanPhase {
				return
			}
			for _, c := range s.Children {
				if c.Name == "pass:candidates" {
					passes = append(passes, s.Name)
					if len(c.Children) != 1 || c.Children[0].Kind != obs.SpanBlock {
						t.Errorf("stream=%v: pass:candidates holds %d children, want its one block", stream, len(c.Children))
					}
				}
			}
		})
		if !slices.Equal(passes, []string{"phase:iterate"}) {
			t.Errorf("stream=%v: pass:candidates found under %v, want once under phase:iterate", stream, passes)
		}
		if s := res.Stats.Series.Find(SeriesBlockSeconds, series.L("pass", "candidates")); s == nil || s.Total != 1 {
			t.Errorf("stream=%v: candidates block series %+v, want one point", stream, s)
		}
	}
}

// TestWatchdogCancelCleanError wires a hair-trigger watchdog to the run
// context: the run must stop with the context's error, return no
// partial result, and leave everything recorded so far readable in the
// caller-owned series store.
func TestWatchdogCancelCleanError(t *testing.T) {
	ds := reportData(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	store := series.NewStore(0)
	dog := obs.NewWatchdog(obs.WatchdogOptions{NoImprove: 1, Cancel: cancel})
	cfg := reportConfigFixture()
	cfg.Series = store
	cfg.Observer = dog

	res, err := RunContext(ctx, ds, cfg)
	if res != nil {
		t.Fatalf("cancelled run returned a result: %+v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
	if _, ok := dog.Stalled(); !ok {
		t.Error("watchdog cancelled without recording the stall")
	}
	// The store is caller-owned: the trajectory up to the cancellation
	// point survives the aborted run.
	if s := store.Snapshot().Find(SeriesIterObjective, series.L("restart", "1")); s == nil || s.Total == 0 {
		t.Error("no iteration series recorded before cancellation")
	}
}

// TestStreamWatchdogCancel exercises the same path through the
// out-of-core engine, which checks the context in its block passes.
func TestStreamWatchdogCancel(t *testing.T) {
	ds := streamEquivalenceData(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dog := obs.NewWatchdog(obs.WatchdogOptions{NoImprove: 1, Cancel: cancel})
	cfg := Config{K: 3, L: 3, Seed: 13, Observer: dog}
	res, err := RunStream(ctx, dataset.NewMemorySource(ds, 64), cfg)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled streamed run = (%v, %v), want (nil, context.Canceled)", res, err)
	}
}
