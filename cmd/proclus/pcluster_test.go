// Package proclus_test runs `pcluster -algo proclus` end to end as a
// built binary: the summary, sweeps, streaming, the stall watchdog and
// the report and trace files.
package proclus_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proclus/internal/clitest"
	"proclus/internal/core"
	"proclus/internal/obs/series"
	"proclus/internal/synth"
)

func TestMain(m *testing.M) { os.Exit(clitest.Main(m)) }

func run(args []string, out *strings.Builder) error { return clitest.Run("proclus", args, out) }

// writeWorkload generates a small labeled binary dataset and returns its
// path.
func writeWorkload(t *testing.T) string {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 1500, Dims: 8, K: 2, FixedDims: 3, MinSizeFraction: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunClusters(t *testing.T) {
	path := writeWorkload(t)
	var sb strings.Builder
	if err := run([]string{"-in", path, "-k", "2", "-l", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"proclus: 1500 points × 8 dims", "objective", "cluster   1:", "dims [",
		"Outliers", "confusion matrix", "purity:", "ARI:", "NMI:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunSweep(t *testing.T) {
	path := writeWorkload(t)
	var sb strings.Builder
	if err := run([]string{"-in", path, "-k", "2", "-sweepl", "2:5"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, "suggested l:") {
		t.Fatalf("output missing suggestion:\n%s", got)
	}
}

func TestRunSweepK(t *testing.T) {
	path := writeWorkload(t)
	var sb strings.Builder
	if err := run([]string{"-in", path, "-l", "3", "-sweepk", "1:4"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "suggested k:") {
		t.Fatalf("output missing k suggestion:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-k", "2", "-l", "3"}, &sb); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "x.bin"}, &sb); err == nil {
		t.Error("missing -l accepted")
	}
	if err := run([]string{"-in", filepath.Join(t.TempDir(), "absent.bin"), "-l", "3"}, &sb); err == nil {
		t.Error("missing file accepted")
	}
	path := writeWorkload(t)
	if err := run([]string{"-in", path, "-k", "2", "-l", "99"}, &sb); err == nil {
		t.Error("l > dims accepted")
	}
	if err := run([]string{"-in", path, "-k", "2", "-sweepl", "banana"}, &sb); err == nil {
		t.Error("bad sweep range accepted")
	}
	if err := run([]string{"-in", path, "-k", "2", "-sweepl", "5:2"}, &sb); err == nil {
		t.Error("inverted sweep range accepted")
	}
}

func TestRunWritesReportAndTrace(t *testing.T) {
	path := writeWorkload(t)
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "report.json")
	tracePath := filepath.Join(dir, "trace.jsonl")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	var sb strings.Builder
	err := run([]string{"-in", path, "-k", "2", "-l", "3",
		"-report", reportPath, "-trace", tracePath,
		"-cpuprofile", cpuPath, "-memprofile", memPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Algorithm string `json:"algorithm"`
		Dataset   struct {
			Points  int    `json:"points"`
			Labeled bool   `json:"labeled"`
			Source  string `json:"source"`
		} `json:"dataset"`
		Counters struct {
			DistanceEvals int64 `json:"distance_evals"`
			PointsScanned int64 `json:"points_scanned"`
		} `json:"counters"`
		Clusters []struct {
			Size int `json:"size"`
		} `json:"clusters"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Algorithm != "proclus" {
		t.Errorf("algorithm = %q", rep.Algorithm)
	}
	if rep.Dataset.Points != 1500 || !rep.Dataset.Labeled || rep.Dataset.Source != path {
		t.Errorf("dataset info = %+v", rep.Dataset)
	}
	if rep.Counters.DistanceEvals <= 0 || rep.Counters.PointsScanned <= 0 {
		t.Errorf("counters not collected: %+v", rep.Counters)
	}
	if len(rep.Clusters) != 2 {
		t.Errorf("clusters: %d", len(rep.Clusters))
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(trace)), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace has only %d lines", len(lines))
	}
	var first, last struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("trace line 0 is not valid JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("trace last line is not valid JSON: %v", err)
	}
	if first.Type != "run_start" || last.Type != "run_end" {
		t.Errorf("trace bracketing: first %q, last %q", first.Type, last.Type)
	}

	for _, p := range []string{cpuPath, memPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", p, err)
		}
	}
}

func TestRunSweepWritesReport(t *testing.T) {
	path := writeWorkload(t)
	reportPath := filepath.Join(t.TempDir(), "report.json")
	var sb strings.Builder
	if err := run([]string{"-in", path, "-k", "2", "-sweepl", "2:4", "-report", reportPath}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Algorithm string `json:"algorithm"`
		Config    struct {
			L int `json:"l"`
		} `json:"config"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("sweep report is not valid JSON: %v", err)
	}
	if rep.Algorithm != "proclus" || rep.Config.L < 2 || rep.Config.L > 4 {
		t.Errorf("sweep report: algorithm %q, l %d", rep.Algorithm, rep.Config.L)
	}
}

func TestRunStreamed(t *testing.T) {
	path := writeWorkload(t)
	assignPath := filepath.Join(t.TempDir(), "a.csv")
	var sb strings.Builder
	err := run([]string{"-in", path, "-k", "2", "-l", "3",
		"-stream", "-block-points", "256", "-assign", assignPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"proclus: 1500 points × 8 dims", "objective",
		"cluster   1:", "Outliers", "confusion matrix", "purity:", "ARI:", "NMI:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	data, err := os.ReadFile(assignPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1501 {
		t.Fatalf("%d assignment lines, want 1501", len(lines))
	}
}

func TestRunStreamedWritesReport(t *testing.T) {
	path := writeWorkload(t)
	repPath := filepath.Join(t.TempDir(), "run.json")
	var sb strings.Builder
	if err := run([]string{"-in", path, "-k", "2", "-l", "3", "-stream", "-report", repPath}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Config struct {
			Stream      bool `json:"stream"`
			BlockPoints int  `json:"block_points"`
		} `json:"config"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Config.Stream || rep.Config.BlockPoints == 0 {
		t.Fatalf("report config echo = %+v, want stream=true with a block size", rep.Config)
	}
}

func TestRunStreamedRejectsIncompatibleFlags(t *testing.T) {
	path := writeWorkload(t)
	cases := [][]string{
		{"-in", path, "-k", "2", "-l", "3", "-stream", "-normalize", "minmax"},
		{"-in", path, "-k", "2", "-stream", "-sweepl", "2:5"},
		{"-in", path, "-k", "2", "-stream", "-sweepk", "2:4"},
		{"-in", "data.csv", "-k", "2", "-l", "3", "-stream"},
	}
	for i, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("case %d: %v accepted with -stream", i, args)
		}
	}
}

// TestRunStallCancelAborts wires the hair-trigger stall watchdog to the
// run context: the command must fail with a cancellation error, must
// not leave a partial assignment file behind, and must still flush the
// series recorded before the abort.
func TestRunStallCancelAborts(t *testing.T) {
	path := writeWorkload(t)
	dir := t.TempDir()
	assignPath := filepath.Join(dir, "a.csv")
	seriesPath := filepath.Join(dir, "s.json")
	var sb strings.Builder
	err := run([]string{
		"-in", path, "-k", "2", "-l", "3",
		"-stall-iters", "1", "-stall-cancel",
		"-assign", assignPath, "-series", seriesPath,
	}, &sb)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("stalled run error = %v, want context cancellation", err)
	}
	if _, statErr := os.Stat(assignPath); !os.IsNotExist(statErr) {
		t.Errorf("aborted run left an assignment file (stat err %v)", statErr)
	}
	snap, readErr := series.ReadSnapshotFile(seriesPath)
	if readErr != nil {
		t.Fatalf("series snapshot not flushed: %v", readErr)
	}
	if s := snap.Find(core.SeriesIterObjective, series.L("restart", "1")); s == nil || s.Total == 0 {
		t.Error("flushed snapshot has no objective series")
	}
}

// TestRunStreamedStallCancel exercises the same abort through the
// out-of-core path.
func TestRunStreamedStallCancel(t *testing.T) {
	path := writeWorkload(t)
	assignPath := filepath.Join(t.TempDir(), "a.csv")
	var sb strings.Builder
	err := run([]string{
		"-in", path, "-k", "2", "-l", "3", "-stream",
		"-stall-iters", "1", "-stall-cancel", "-assign", assignPath,
	}, &sb)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("stalled streamed run error = %v, want context cancellation", err)
	}
	if _, statErr := os.Stat(assignPath); !os.IsNotExist(statErr) {
		t.Errorf("aborted streamed run left an assignment file (stat err %v)", statErr)
	}
}
