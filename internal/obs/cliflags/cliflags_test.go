package cliflags

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proclus/internal/obs"
)

func parse(t *testing.T, args []string, opts ...Option) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, opts...)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegisterDefaults(t *testing.T) {
	f := parse(t, nil)
	if f.Report != "" || f.Trace != "" || f.Progress || f.ChromeTrace != "" ||
		f.CPUProfile != "" || f.MemProfile != "" {
		t.Errorf("zero flags not zero: %+v", f)
	}
	sess, err := f.Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Observer != nil {
		t.Error("no flags should yield a nil observer (fast path)")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterOptions(t *testing.T) {
	for _, tc := range []struct {
		name            string
		opts            []Option
		absent, present []string
	}{
		{
			name:    "WithoutReport",
			opts:    []Option{WithoutReport()},
			absent:  []string{"report", "series", "archive", "archive-keep", "stall-iters", "stall-deadline", "stall-cancel"},
			present: []string{"trace", "progress", "chrometrace", "cpuprofile", "memprofile"},
		},
		{
			name:    "WithStall",
			opts:    []Option{WithStall()},
			present: []string{"report", "stall-iters", "stall-deadline", "stall-cancel"},
		},
		{
			name:    "WithArchive",
			opts:    []Option{WithArchive()},
			present: []string{"report", "archive", "archive-keep"},
		},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs, tc.opts...)
		for _, name := range tc.absent {
			if fs.Lookup(name) != nil {
				t.Errorf("%s: -%s registered", tc.name, name)
			}
		}
		for _, name := range tc.present {
			if fs.Lookup(name) == nil {
				t.Errorf("%s: -%s missing", tc.name, name)
			}
		}
	}
}

func TestSessionTraceAndChromeTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	chromePath := filepath.Join(dir, "chrome.json")
	f := parse(t, []string{"-trace", tracePath, "-chrometrace", chromePath})
	sess, err := f.Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Observer == nil {
		t.Fatal("observer not assembled")
	}
	sess.Observer.Observe(obs.Event{Type: obs.EvRunStart, Algorithm: "proclus", Points: 10, Dims: 2})
	sess.Observer.Observe(obs.Event{Type: obs.EvRunEnd, Algorithm: "proclus", Seconds: 0.1})
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(string(trace)), "\n") + 1; lines != 2 {
		t.Errorf("trace lines = %d:\n%s", lines, trace)
	}
	chrome, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome trace empty")
	}
}

func TestStartFailureCleansUp(t *testing.T) {
	f := parse(t, []string{"-trace", filepath.Join(t.TempDir(), "nodir", "x", "trace.jsonl")})
	if _, err := f.Start(io.Discard); err == nil {
		t.Fatal("unwritable trace path accepted")
	}
}

func TestSessionNilClose(t *testing.T) {
	var s *Session
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionWatchdogCancel(t *testing.T) {
	f := parse(t, []string{"-stall-iters", "3", "-stall-cancel"}, WithStall())
	var warn strings.Builder
	sess, err := f.Start(&warn)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Watchdog == nil {
		t.Fatal("stall flags should build a watchdog")
	}
	if sess.Observer != sess.Watchdog {
		t.Error("watchdog should wrap the session observer chain")
	}
	ctx, cancel := sess.Context(context.Background())
	defer cancel()
	for i := 1; i <= 3; i++ {
		sess.Observe(obs.Event{Type: obs.EvIteration, Restart: 1, Iteration: i})
	}
	select {
	case <-ctx.Done():
	default:
		t.Fatal("watchdog trip did not cancel the session context")
	}
	if _, ok := sess.Watchdog.Stalled(); !ok {
		t.Error("watchdog not marked stalled")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warn.String(), "stalled") {
		t.Errorf("Close did not report the stall: %q", warn.String())
	}
}

func TestSessionWatchdogObserveOnly(t *testing.T) {
	f := parse(t, []string{"-stall-iters", "2"}, WithStall())
	sess, err := f.Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := sess.Context(context.Background())
	defer cancel()
	for i := 1; i <= 5; i++ {
		sess.Observe(obs.Event{Type: obs.EvIteration, Restart: 1, Iteration: i})
	}
	select {
	case <-ctx.Done():
		t.Fatal("watchdog cancelled without -stall-cancel")
	default:
	}
	if _, ok := sess.Watchdog.Stalled(); !ok {
		t.Error("watchdog should still record the stall")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionArchive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	f := parse(t, []string{"-archive", dir, "-archive-keep", "2"}, WithArchive())
	sess, err := f.Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Archive == nil {
		t.Fatal("-archive did not open a store")
	}
	rep := &obs.RunReport{Algorithm: "proclus", Seed: 7, Objective: 1.5,
		Phases:  []obs.PhaseReport{{Name: "iterate", Seconds: 0.1}},
		Quality: map[string]float64{"ari": 0.8}}
	id, err := sess.ArchiveRun(rep)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("ArchiveRun returned an empty ID with an archive attached")
	}
	es, probs, err := sess.Archive.List()
	if err != nil || len(probs) != 0 || len(es) != 1 || es[0].RunID != id {
		t.Fatalf("archive lists %+v, problems %v (err %v), want only %s", es, probs, err, id)
	}
	got := es[0].Report
	if got.Seed != 7 || got.Quality["ari"] != 0.8 ||
		len(got.Phases) != 1 || got.Phases[0].Seconds != 0.1 {
		t.Errorf("archived report = %+v", got)
	}
	// Without -archive the helper is a silent no-op.
	plain, err := parse(t, nil).Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if id, err := plain.ArchiveRun(rep); id != "" || err != nil {
		t.Errorf("ArchiveRun without -archive = (%q, %v), want no-op", id, err)
	}
}
