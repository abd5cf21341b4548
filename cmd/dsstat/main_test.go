package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proclus/internal/dataset"
)

func writeSample(t *testing.T, ext string) string {
	t.Helper()
	ds, err := dataset.FromRows([][]float64{
		{1, 10}, {2, 20}, {3, 30}, {4, 40},
	}, []int{0, 0, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s"+ext)
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBinaryStreamed(t *testing.T) {
	path := writeSample(t, ".bin")
	var sb strings.Builder
	if err := run([]string{"-in", path}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"4 points × 2 dims (streamed)", "min", "stddev", "ground-truth labels", "outliers"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q:\n%s", want, got)
		}
	}
	// min of dim0 is 1, max 4.
	if !strings.Contains(got, "1.0000") || !strings.Contains(got, "4.0000") {
		t.Fatalf("stats wrong:\n%s", got)
	}
}

func TestRunCSVWithLabels(t *testing.T) {
	path := writeSample(t, ".csv")
	var sb strings.Builder
	if err := run([]string{"-in", path, "-labels"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"ground-truth labels", "outliers", "cluster 0"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q:\n%s", want, got)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", filepath.Join(t.TempDir(), "nope.bin")}, &sb); err == nil {
		t.Error("missing file accepted")
	}
	// dsstat archives no run, records no series and runs no fit that
	// could stall, so it offers neither -archive, -series nor the
	// -stall-* flags.
	for _, flag := range []string{"-archive", "-series", "-stall-iters"} {
		target := filepath.Join(t.TempDir(), "out")
		err := run([]string{"-in", writeSample(t, ".bin"), flag, target}, &sb)
		if err == nil || !strings.Contains(err.Error(), "not defined: "+flag) {
			t.Errorf("%s: err = %v, want an unknown-flag error", flag, err)
		}
		if _, err := os.Stat(target); !os.IsNotExist(err) {
			t.Errorf("rejected %s still touched %s (stat: %v)", flag, target, err)
		}
	}
}

func TestRunReport(t *testing.T) {
	path := writeSample(t, ".bin")
	report := filepath.Join(t.TempDir(), "stats.json")
	var sb strings.Builder
	if err := run([]string{"-in", path, "-report", report}, &sb); err != nil {
		t.Fatal(err)
	}
	rep, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Algorithm string `json:"algorithm"`
		Dataset   struct {
			Points int `json:"points"`
			Dims   int `json:"dims"`
		} `json:"dataset"`
	}
	if err := json.Unmarshal(rep, &doc); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if doc.Algorithm != "dsstat" || doc.Dataset.Points != 4 || doc.Dataset.Dims != 2 {
		t.Errorf("report fields: %+v", doc)
	}
}
