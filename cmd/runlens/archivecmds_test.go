package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proclus/internal/obs"
	"proclus/internal/obs/archive"
)

// archiveOf writes one archive entry per counter snapshot, with fixed
// timestamps (second n for the nth entry) so run IDs — and therefore
// every subcommand's output — are fully deterministic. Objective and
// ARI are taken per entry; everything else is shared.
func archiveOf(t *testing.T, counters []obs.Snapshot, objective, ari []float64) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "runs")
	st, err := archive.Open(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counters {
		rep := &obs.RunReport{
			Algorithm: "proclus",
			Dataset:   obs.DatasetInfo{Points: 1000, Dims: 20},
			Seed:      7,
			Config:    map[string]int{"k": 5, "l": 3},
			Phases: []obs.PhaseReport{
				{Name: "initialize", Seconds: 0.1},
				{Name: "iterate", Seconds: 0.5},
			},
			Objective: objective[i],
			Counters:  c,
			Quality:   map[string]float64{"ari": ari[i], "nmi": 0.8},
		}
		if _, err := st.Save(archive.Entry{
			CreatedAt: time.Date(2026, 8, 8, 12, 0, i+1, 0, time.UTC),
			GitRev:    "abc1234",
			Report:    rep,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// buildArchive writes the three-entry archive the goldens pin: two
// identical-seed twins followed by a perturbed run whose
// distance-evaluation count and ARI moved.
func buildArchive(t *testing.T) string {
	t.Helper()
	return archiveOf(t,
		[]obs.Snapshot{
			{DistanceEvals: 2000, PointsScanned: 500},
			{DistanceEvals: 2000, PointsScanned: 500},
			{DistanceEvals: 2600, PointsScanned: 500},
		},
		[]float64{12.5, 12.5, 13.0},
		[]float64{0.9, 0.9, 0.7})
}

// TestArchiveGoldens locks the ls, identical-run diff, and trend
// outputs. Regenerate deliberately with
// `go test ./cmd/runlens -run TestArchiveGoldens -update`.
func TestArchiveGoldens(t *testing.T) {
	dir := buildArchive(t)
	cases := []struct {
		golden string
		args   []string
	}{
		{"golden_ls.txt", []string{"ls", "-archive", dir}},
		{"golden_diff.txt", []string{"diff", "-archive", dir, "@2", "@1"}},
		{"golden_trend.txt", []string{"trend", "-archive", dir}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output drifted from golden (re-run with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s",
					buf.Bytes(), want)
			}
		})
	}
}

func TestDiffIdenticalRunsExitZero(t *testing.T) {
	dir := buildArchive(t)
	var buf bytes.Buffer
	if err := run([]string{"diff", "-archive", dir, "@2", "@1"}, &buf); err != nil {
		t.Fatalf("identical-seed runs reported as differing: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("diff output missing the all-clear line:\n%s", buf.String())
	}
	// The perturbed run moved distance_evals by 30% and ARI by 22%:
	// within a 50% -work-threshold, it diffs clean.
	buf.Reset()
	if err := run([]string{"diff", "-archive", dir, "-work-threshold", "0.5", "@1", "@0"}, &buf); err != nil {
		t.Fatalf("deltas within -work-threshold reported: %v\n%s", err, buf.String())
	}
}

func TestDiffDetectsCounterAndQualityDeltas(t *testing.T) {
	dir := buildArchive(t)
	// Stream counters are deterministic for a fixed block size, so a
	// move in stream_blocks alone is a difference like any other.
	streamed := obs.Snapshot{DistanceEvals: 2000, PointsScanned: 500, StreamBlocks: 4, StreamBytes: 160000}
	moved := streamed
	moved.StreamBlocks = 5
	streamDir := archiveOf(t, []obs.Snapshot{streamed, moved},
		[]float64{12.5, 12.5}, []float64{0.9, 0.9})

	for _, tc := range []struct {
		name string
		args []string
		// section is the header the wanted metrics must appear under.
		section string
		want    []string
	}{
		{
			name:    "perturbed",
			args:    []string{"-archive", dir, "@1", "@0"},
			section: "REGRESSIONS:",
			want:    []string{"counters/distance_evals", "quality/ari"},
		},
		{
			// The same pair reversed: fewer evaluations and a higher ARI
			// are improvements, and still a difference.
			name:    "reversed",
			args:    []string{"-archive", dir, "@0", "@1"},
			section: "improvements:",
			want:    []string{"counters/distance_evals", "quality/ari"},
		},
		{
			name:    "stream_blocks only",
			args:    []string{"-archive", streamDir, "@1", "@0"},
			section: "REGRESSIONS:",
			want:    []string{"counters/stream_blocks"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(append([]string{"diff"}, tc.args...), &buf)
			out := buf.String()
			if err == nil {
				t.Fatalf("differing runs diffed clean:\n%s", out)
			}
			_, section, ok := strings.Cut(out, tc.section+"\n")
			if !ok {
				t.Fatalf("diff output has no %q section:\n%s", tc.section, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(section, want) {
					t.Errorf("%q missing under %q:\n%s", want, tc.section, out)
				}
			}
			if tc.section == "improvements:" && strings.Contains(out, "REGRESSIONS:") {
				t.Errorf("improvements reported as regressions:\n%s", out)
			}
			// Only counters and quality indices are compared, never the
			// nondeterministic phase times.
			if strings.Contains(out, "phase_seconds/") {
				t.Errorf("diff flagged nondeterministic phase time:\n%s", out)
			}
		})
	}
}

// TestDiffNotes checks the notes diff prints above its deltas: a pair
// of entries that differ in seed and in config (k 5 against 4) prints
// both, and the identical-seed twins print neither. The notes only
// explain deltas, so an otherwise equal pair still diffs clean.
func TestDiffNotes(t *testing.T) {
	dir := buildArchive(t)
	st, err := archive.Open(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(archive.Entry{
		CreatedAt: time.Date(2026, 8, 8, 12, 0, 4, 0, time.UTC),
		Report: &obs.RunReport{
			Algorithm: "proclus",
			Seed:      8,
			Config:    map[string]int{"k": 4, "l": 3},
			Objective: 13.0,
			Counters:  obs.Snapshot{DistanceEvals: 2600, PointsScanned: 500},
			Quality:   map[string]float64{"ari": 0.7, "nmi": 0.8},
		},
	}); err != nil {
		t.Fatal(err)
	}
	const (
		seedNote   = "note: seeds differ"
		configNote = "note: configs differ"
	)
	for _, tc := range []struct {
		base, cand string
		notes      bool
	}{
		{"@1", "@0", true},  // seed 7, k 5 against seed 8, k 4
		{"@3", "@2", false}, // the identical-seed twins
	} {
		var buf bytes.Buffer
		if err := run([]string{"diff", "-archive", dir, tc.base, tc.cand}, &buf); err != nil {
			t.Fatalf("%s %s: %v\n%s", tc.base, tc.cand, err, buf.String())
		}
		out := buf.String()
		for _, note := range []string{seedNote, configNote} {
			if strings.Contains(out, note) != tc.notes {
				t.Errorf("%s %s: %q printed = %v, want %v:\n%s",
					tc.base, tc.cand, note, !tc.notes, tc.notes, out)
			}
		}
	}
}

func TestDiffRefResolution(t *testing.T) {
	dir := buildArchive(t)
	if err := run([]string{"diff", "-archive", dir, "@9", "@0"}, &bytes.Buffer{}); err == nil {
		t.Error("out-of-range @N accepted")
	}
	if err := run([]string{"diff", "-archive", dir, "no-such-run", "@0"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown run ID accepted")
	}
	if err := run([]string{"diff", "-archive", dir, "@0"}, &bytes.Buffer{}); err == nil {
		t.Error("single operand accepted")
	}
	// Diff by explicit run ID: the first entry's ID is derived from its
	// fixed timestamp.
	id := "20260808T120001.000000000Z-proclus"
	var buf bytes.Buffer
	if err := run([]string{"diff", "-archive", dir, id, "@1"}, &buf); err != nil {
		t.Errorf("diff by run ID failed: %v\n%s", err, buf.String())
	}
}

func TestTrendFirstMover(t *testing.T) {
	dir := buildArchive(t)
	var buf bytes.Buffer
	if err := run([]string{"trend", "-archive", dir, "-algorithm", "proclus"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "distance_evals") || !strings.Contains(out, "<- moved first") {
		t.Errorf("trend missing first-mover attribution:\n%s", out)
	}
	if !strings.Contains(out, "first moved at run 2") {
		t.Errorf("trend attributes the move to the wrong run:\n%s", out)
	}
	// points_scanned never moves, so it must not appear among movers.
	if strings.Contains(out, "points_scanned first moved") {
		t.Errorf("trend flagged a flat counter:\n%s", out)
	}
}

func TestArchiveCommandsRequireArchive(t *testing.T) {
	for _, sub := range []string{"ls", "diff", "trend"} {
		args := []string{sub}
		if sub == "diff" {
			args = append(args, "@0", "@1")
		}
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("runlens %s without -archive accepted", sub)
		}
	}
}
