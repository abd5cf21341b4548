// Package orclus_test runs `pcluster -algo orclus` end to end as a built
// binary: the summary, the telemetry it cannot honor, and the archive,
// report and trace files.
package orclus_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proclus/internal/clitest"
	"proclus/internal/synth"
)

func TestMain(m *testing.M) { os.Exit(clitest.Main(m)) }

func run(args []string, out *strings.Builder) error { return clitest.Run("orclus", args, out) }

func writeOrientedData(t *testing.T) string {
	t.Helper()
	ds, _, err := synth.GenerateOriented(synth.OrientedConfig{
		N: 1200, Dims: 8, K: 2, L: 2, OutlierFraction: -1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "o.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunClusters(t *testing.T) {
	path := writeOrientedData(t)
	var sb strings.Builder
	if err := run([]string{"-in", path, "-k", "2", "-l", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"orclus: 1200 points × 8 dims", "objective", "cluster   1:",
		"confusion matrix", "purity:", "ARI", "NMI"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-k", "2", "-l", "2"}, &sb); err == nil {
		t.Error("missing -in accepted")
	}
	path := writeOrientedData(t)
	if err := run([]string{"-in", path, "-k", "2"}, &sb); err == nil {
		t.Error("missing -l accepted")
	}
	if err := run([]string{"-in", path, "-k", "2", "-l", "99"}, &sb); err == nil {
		t.Error("l > dims accepted")
	}
}

// TestRunRejectsUnsupportedTelemetry pins the loud-failure contract:
// shared cliflags the algorithm cannot honor error out instead of
// silently producing empty artifacts.
func TestRunRejectsUnsupportedTelemetry(t *testing.T) {
	path := writeOrientedData(t)
	dir := t.TempDir()
	cases := [][]string{
		{"-in", path, "-k", "2", "-l", "2", "-series", filepath.Join(dir, "s.json")},
		{"-in", path, "-k", "2", "-l", "2", "-stall-iters", "5"},
		{"-in", path, "-k", "2", "-l", "2", "-stall-deadline", "1s"},
		{"-in", path, "-k", "2", "-l", "2", "-stall-cancel"},
	}
	for _, args := range cases {
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil {
			t.Errorf("%v accepted", args)
			continue
		}
		if !strings.Contains(err.Error(), "unsupported") {
			t.Errorf("%v: error %q does not say unsupported", args, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "s.json")); !os.IsNotExist(err) {
		t.Error("rejected -series still wrote a snapshot")
	}
}

func TestRunArchives(t *testing.T) {
	path := writeOrientedData(t)
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-in", path, "-k", "2", "-l", "2", "-archive", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("-archive left the archive directory empty")
	}
}

func TestRunReportAndTrace(t *testing.T) {
	path := writeOrientedData(t)
	dir := t.TempDir()
	report := filepath.Join(dir, "run.json")
	trace := filepath.Join(dir, "trace.jsonl")
	var sb strings.Builder
	err := run([]string{"-in", path, "-k", "2", "-l", "2",
		"-report", report, "-trace", trace}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Algorithm string  `json:"algorithm"`
		Objective float64 `json:"objective"`
		Clusters  []struct {
			Size int `json:"size"`
		} `json:"clusters"`
	}
	if err := json.Unmarshal(rep, &doc); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if doc.Algorithm != "orclus" || len(doc.Clusters) != 2 || doc.Objective == 0 {
		t.Errorf("report fields: %+v", doc)
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), `"run_end"`) {
		t.Errorf("trace missing run_end:\n%s", tr)
	}
}
