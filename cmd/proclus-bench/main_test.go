package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleTableSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "table1", "-n", "3000"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"table1", "Dimensions", "exact dimension matches", "completed in"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q:\n%s", want, got)
		}
	}
}

func TestRunConfusionSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "table3", "-n", "3000"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "purity:") {
		t.Fatalf("missing purity:\n%s", sb.String())
	}
}

func TestRunFigure9Small(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig9", "-n", "2000"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "PROCLUS") {
		t.Fatalf("missing series:\n%s", sb.String())
	}
}

func TestRunLSweepSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "lsweep", "-n", "2000"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "suggested") {
		t.Fatalf("missing suggestion:\n%s", sb.String())
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig9", "-n", "2000", "-csvdir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig9.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "proclus_seconds") {
		t.Fatalf("CSV content: %s", data)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "table99"}, &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunExperimentList exercises the comma-separated -experiment
// spelling: both named experiments run, in registration order.
func TestRunExperimentList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "table2,table1", "-n", "2000"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	t1 := strings.Index(got, "== table1")
	t2 := strings.Index(got, "== table2")
	if t1 < 0 || t2 < 0 || t2 < t1 {
		t.Fatalf("expected table1 then table2 in output:\n%s", got)
	}
}

func TestRunExperimentListUnknownName(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-experiment", "table1,tablex", "-n", "2000"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "tablex") {
		t.Fatalf("unknown name in list: err = %v, want it named", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-zap"}, &sb); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// proclus-bench archives no run and records no series, so it offers
	// neither -archive nor -series.
	for _, flag := range []string{"-archive", "-series"} {
		target := filepath.Join(t.TempDir(), "out")
		err := run([]string{"-experiment", "table1", "-n", "3000", flag, target}, &sb)
		if err == nil || !strings.Contains(err.Error(), "not defined: "+flag) {
			t.Errorf("%s: err = %v, want an unknown-flag error", flag, err)
		}
		if _, err := os.Stat(target); !os.IsNotExist(err) {
			t.Errorf("rejected %s still touched %s (stat: %v)", flag, target, err)
		}
	}
}

// TestRunRejectsStallCancel: no experiment driver takes a context, so
// -stall-cancel could cancel nothing and is refused before any
// experiment runs, while -stall-iters alone still only warns.
func TestRunRejectsStallCancel(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-experiment", "table1", "-n", "3000", "-stall-iters", "1", "-stall-cancel"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-stall-cancel") {
		t.Fatalf("err = %v, want an error naming -stall-cancel", err)
	}
	if strings.Contains(sb.String(), "completed in") {
		t.Errorf("an experiment ran before the rejection:\n%s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"-experiment", "table1", "-n", "2000", "-stall-iters", "1"}, &sb); err != nil {
		t.Fatalf("-stall-iters without -stall-cancel: %v", err)
	}
}

func TestRunWritesBenchReport(t *testing.T) {
	reportPath := filepath.Join(t.TempDir(), "bench.json")
	var sb strings.Builder
	if err := run([]string{"-experiment", "table1", "-n", "3000", "-report", reportPath}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "in-algorithm") {
		t.Fatalf("missing phase-timing line:\n%s", sb.String())
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var records []struct {
		Experiment   string  `json:"experiment"`
		WallSeconds  float64 `json:"wall_seconds"`
		ProclusRuns  int     `json:"proclus_runs"`
		PhaseSeconds float64 `json:"phase_seconds"`
	}
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("bench report is not valid JSON: %v", err)
	}
	if len(records) != 1 || records[0].Experiment != "table1" {
		t.Fatalf("records: %+v", records)
	}
	r := records[0]
	if r.ProclusRuns <= 0 || r.PhaseSeconds <= 0 || r.WallSeconds < r.PhaseSeconds {
		t.Errorf("timing record inconsistent: %+v", r)
	}
}

func TestRunStreamedTable(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-experiment", "table1", "-n", "3000",
		"-stream", "-block-points", "256"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"table1", "Dimensions", "completed in"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q:\n%s", want, got)
		}
	}
}

func TestRunStreamedFigure7(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-experiment", "fig7", "-n", "1500",
		"-stream", "-block-points", "256"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "PROCLUS") {
		t.Fatalf("missing series:\n%s", sb.String())
	}
}
