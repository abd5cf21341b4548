package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proclus/internal/synth"
)

func writeData(t *testing.T) string {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 1000, Dims: 8, K: 3, FixedDims: 3, MinSizeFraction: 0.2,
		OutlierFraction: -1, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestListNames(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, name := range []string{"clique", "kmedoids", "orclus", "proclus"} {
		if !strings.Contains(got, name) {
			t.Errorf("-list output missing %q:\n%s", name, got)
		}
	}
}

// TestRunEachAlgorithm drives every registered algorithm through the
// umbrella CLI with its own parameter set and checks the generic output
// plus the quality indices the labeled input enables.
func TestRunEachAlgorithm(t *testing.T) {
	path := writeData(t)
	cases := []struct {
		algo string
		args []string
	}{
		{"proclus", []string{"-k", "3", "-l", "3"}},
		{"clique", []string{"-tau", "0.02", "-mdl", "-highest"}},
		{"orclus", []string{"-k", "3", "-l", "3"}},
		{"kmedoids", []string{"-k", "3"}},
	}
	for _, tc := range cases {
		var sb strings.Builder
		args := append([]string{"-algo", tc.algo, "-in", path}, tc.args...)
		if err := run(args, &sb); err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		got := sb.String()
		for _, want := range []string{tc.algo + ":", "clusters:", "ARI"} {
			if !strings.Contains(got, want) {
				t.Errorf("%s output missing %q:\n%s", tc.algo, want, got)
			}
		}
	}
}

// TestRejectsUnsupportedCombos pins the umbrella contract: a flag the
// selected algorithm does not support fails with an error naming it.
func TestRejectsUnsupportedCombos(t *testing.T) {
	path := writeData(t)
	cases := []struct {
		name string
		args []string
	}{
		{"clique", []string{"-algo", "clique", "-in", path, "-k", "3"}},
		{"orclus", []string{"-algo", "orclus", "-in", path, "-k", "3", "-l", "2", "-stream"}},
		{"orclus", []string{"-algo", "orclus", "-in", path, "-k", "3", "-l", "2", "-kernel", "naive"}},
		{"kmedoids", []string{"-algo", "kmedoids", "-in", path, "-k", "3", "-workers", "4"}},
		{"proclus", []string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3", "-xi", "8"}},
		{"proclus", []string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3", "-restarts", "2"}},
	}
	for _, tc := range cases {
		var sb strings.Builder
		err := run(tc.args, &sb)
		if err == nil {
			t.Errorf("%v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.name)
		}
	}
	var sb strings.Builder
	if err := run([]string{"-algo", "dbscan", "-in", path}, &sb); err == nil ||
		!strings.Contains(err.Error(), "proclus") {
		t.Errorf("unknown algorithm error should list the registered names, got %v", err)
	}
}

func TestReportAssignArchive(t *testing.T) {
	path := writeData(t)
	dir := t.TempDir()
	report := filepath.Join(dir, "run.json")
	assign := filepath.Join(dir, "assign.csv")
	arch := filepath.Join(dir, "runs")
	var sb strings.Builder
	err := run([]string{"-algo", "kmedoids", "-in", path, "-k", "3",
		"-report", report, "-assign", assign, "-archive", arch}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Algorithm string `json:"algorithm"`
		Clusters  []struct {
			Size int `json:"size"`
		} `json:"clusters"`
	}
	if err := json.Unmarshal(rep, &doc); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if doc.Algorithm != "kmedoids" || len(doc.Clusters) != 3 {
		t.Errorf("report fields: %+v", doc)
	}
	as, err := os.ReadFile(assign)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(as), "point,cluster\n") {
		t.Errorf("assignment CSV header missing:\n%.80s", as)
	}
	entries, err := os.ReadDir(arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Error("-archive left the archive directory empty")
	}
}

// TestStreamedProclus exercises the out-of-core path through the
// umbrella CLI; labeled quality still works via the label scan.
func TestStreamedProclus(t *testing.T) {
	path := writeData(t)
	var sb strings.Builder
	err := run([]string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3",
		"-stream", "-block-points", "256"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ARI") {
		t.Errorf("streamed labeled run missing quality indices:\n%s", sb.String())
	}
}

func TestStreamedCliqueSkipsQuality(t *testing.T) {
	path := writeData(t)
	var sb strings.Builder
	err := run([]string{"-algo", "clique", "-in", path, "-tau", "0.02",
		"-mdl", "-highest", "-stream"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "quality: skipped") {
		t.Errorf("streamed clique should skip quality:\n%s", sb.String())
	}
	if err := run([]string{"-algo", "clique", "-in", path, "-tau", "0.02",
		"-stream", "-assign", filepath.Join(t.TempDir(), "a.csv")}, &sb); err == nil {
		t.Error("-assign on a streamed clique fit accepted")
	}
}

func TestRequiredFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-algo", "proclus"}, &sb); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "x.bin"}, &sb); err == nil {
		t.Error("missing -algo accepted")
	}
}
