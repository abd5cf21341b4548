package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proclus/internal/dataset"
)

func TestRunWritesBinary(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d.bin")
	var sb strings.Builder
	err := run([]string{"-n", "500", "-dims", "6", "-k", "2", "-fixeddims", "3", "-o", out}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wrote 500 points × 6 dims") {
		t.Fatalf("output: %s", sb.String())
	}
	ds, err := dataset.LoadFile(out, false)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 500 || ds.Dims() != 6 || !ds.Labeled() {
		t.Fatalf("dataset %d×%d labeled=%v", ds.Len(), ds.Dims(), ds.Labeled())
	}
}

func TestRunWritesCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d.csv")
	var sb strings.Builder
	err := run([]string{"-n", "200", "-dims", "4", "-k", "2", "-avgdims", "2", "-o", out}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.LoadFile(out, true)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 200 {
		t.Fatalf("len %d", ds.Len())
	}
}

func TestRunDimCounts(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d.bin")
	var sb strings.Builder
	err := run([]string{"-n", "300", "-dims", "8", "-k", "3", "-dimcounts", "2,3,4", "-o", out}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "cluster C") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestRunOriented(t *testing.T) {
	out := filepath.Join(t.TempDir(), "o.bin")
	var sb strings.Builder
	err := run([]string{"-oriented", "-n", "300", "-dims", "6", "-k", "2", "-fixeddims", "2", "-o", out}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tight directions") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "100"}, &sb); err == nil {
		t.Error("missing -o accepted")
	}
	if err := run([]string{"-n", "100", "-dimcounts", "2,x", "-o", "/tmp/never.bin"}, &sb); err == nil {
		t.Error("bad dimcounts accepted")
	}
	if err := run([]string{"-n", "0", "-o", filepath.Join(t.TempDir(), "x.bin")}, &sb); err == nil {
		t.Error("invalid generator config accepted")
	}
	if err := run([]string{"-badflag"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
	// datagen archives no run, records no series and runs no fit that
	// could stall, so it offers neither -archive, -series nor the
	// -stall-* flags.
	for _, flag := range []string{"-archive", "-series", "-stall-iters"} {
		target := filepath.Join(t.TempDir(), "out")
		err := run([]string{"-n", "100", "-dims", "4", "-k", "2", "-fixeddims", "2",
			"-o", filepath.Join(t.TempDir(), "a.bin"), flag, target}, &sb)
		if err == nil || !strings.Contains(err.Error(), "not defined: "+flag) {
			t.Errorf("%s: err = %v, want an unknown-flag error", flag, err)
		}
		if _, err := os.Stat(target); !os.IsNotExist(err) {
			t.Errorf("rejected %s still touched %s (stat: %v)", flag, target, err)
		}
	}
}

func TestRunDeterministicFiles(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.bin"), filepath.Join(dir, "b.bin")
	var sb strings.Builder
	if err := run([]string{"-n", "300", "-dims", "5", "-k", "2", "-fixeddims", "2", "-seed", "9", "-o", a}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "300", "-dims", "5", "-k", "2", "-fixeddims", "2", "-seed", "9", "-o", b}, &sb); err != nil {
		t.Fatal(err)
	}
	da, err := dataset.LoadFile(a, false)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dataset.LoadFile(b, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < da.Len(); i++ {
		pa, pb := da.Point(i), db.Point(i)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("same seed produced different files at point %d", i)
			}
		}
	}
}

func TestRunReportAndTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "d.bin")
	report := filepath.Join(dir, "gen.json")
	trace := filepath.Join(dir, "trace.jsonl")
	var sb strings.Builder
	err := run([]string{"-n", "300", "-dims", "5", "-k", "2", "-fixeddims", "2",
		"-o", out, "-report", report, "-trace", trace}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Algorithm string `json:"algorithm"`
		Dataset   struct {
			Points int    `json:"points"`
			Source string `json:"source"`
		} `json:"dataset"`
		TotalSeconds float64 `json:"total_seconds"`
	}
	if err := json.Unmarshal(rep, &doc); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if doc.Algorithm != "datagen" || doc.Dataset.Points != 300 || doc.Dataset.Source != out {
		t.Errorf("report fields: %+v", doc)
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), `"run_start"`) || !strings.Contains(string(tr), `"run_end"`) {
		t.Errorf("trace missing run events:\n%s", tr)
	}
}
