// Package orclus_test runs `pcluster -algo orclus` end to end as a built
// binary: the summary, the telemetry it cannot honor, and the archive,
// report and trace files.
package orclus_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
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

// TestRunOverflowingCoordinates pins the hostile-input contract for
// coordinates that pass validation but whose covariance overflows:
// pcluster exits 1 with ORCLUS's error on stderr and writes no -assign
// file, whether the failure comes in a merge phase or in the final
// bases (-k0factor 1 runs no merge).
func TestRunOverflowingCoordinates(t *testing.T) {
	dir := t.TempDir()
	var csv strings.Builder
	for i := 0; i < 60; i++ {
		for j := 0; j < 3; j++ {
			v := float64((i*7+j*5)%9+1) * 1e200
			if (i+j)%2 == 1 {
				v = -v
			}
			if j > 0 {
				csv.WriteByte(',')
			}
			csv.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		csv.WriteByte('\n')
	}
	path := filepath.Join(dir, "huge.csv")
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "has a finite union energy"},
		{[]string{"-k0factor", "1"}, "orclus: basis of"},
	} {
		assign := filepath.Join(dir, "assign.csv")
		var sb strings.Builder
		err := run(append([]string{"-in", path, "-k", "2", "-l", "1", "-assign", assign}, tc.args...), &sb)
		if err == nil {
			t.Errorf("%v: accepted:\n%s", tc.args, sb.String())
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "exit status 1: pcluster: orclus: ") || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: error %q, want exit status 1 and %q", tc.args, msg, tc.want)
		}
		if _, err := os.Stat(assign); !os.IsNotExist(err) {
			t.Errorf("%v: failed run left an -assign file (stat: %v)", tc.args, err)
		}
	}
}
