// Package clique_test runs `pcluster -algo clique` end to end as a built
// binary: the lattice summary, region descriptions, reporting modes,
// streaming, and the report and trace files.
package clique_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proclus/internal/clitest"
	"proclus/internal/dataset"
	"proclus/internal/randx"
)

func TestMain(m *testing.M) { os.Exit(clitest.Main(m)) }

func run(args []string, out *strings.Builder) error { return clitest.Run("clique", args, out) }

func writeBlobData(t *testing.T) string {
	t.Helper()
	r := randx.New(5)
	ds := dataset.New(4)
	for i := 0; i < 600; i++ {
		ds.AppendLabeled([]float64{
			30 + r.Normal(0, 2), 70 + r.Normal(0, 2), r.Uniform(0, 100), r.Uniform(0, 100),
		}, 0)
	}
	for i := 0; i < 400; i++ {
		p := []float64{r.Uniform(0, 100), r.Uniform(0, 100), r.Uniform(0, 100), r.Uniform(0, 100)}
		ds.AppendLabeled(p, dataset.Outlier)
	}
	path := filepath.Join(t.TempDir(), "blob.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReportsClusters(t *testing.T) {
	path := writeBlobData(t)
	var sb strings.Builder
	if err := run([]string{"-in", path, "-xi", "10", "-tau", "0.05"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"clique: 1000 points × 4 dims", "dense units", "clusters:", "dims [",
		"average overlap:", "coverage:", "ARI:", "NMI:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunVerboseDescribesRegions(t *testing.T) {
	path := writeBlobData(t)
	var sb strings.Builder
	if err := run([]string{"-in", path, "-xi", "10", "-tau", "0.05", "-v"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "region ") {
		t.Fatalf("verbose output missing regions:\n%s", sb.String())
	}
}

func TestRunReportingModes(t *testing.T) {
	path := writeBlobData(t)
	for _, flags := range [][]string{
		{"-highest"},
		{"-maximal"},
		{"-fixeddims", "2"},
		{"-mdl"},
		{"-maxdims", "2"},
	} {
		var sb strings.Builder
		args := append([]string{"-in", path, "-xi", "10", "-tau", "0.05"}, flags...)
		if err := run(args, &sb); err != nil {
			t.Fatalf("%v: %v", flags, err)
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
	path := writeBlobData(t)
	if err := run([]string{"-in", path, "-xi", "1"}, &sb); err == nil {
		t.Error("bad xi accepted")
	}
}

func TestRunWritesReportAndTrace(t *testing.T) {
	path := writeBlobData(t)
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "report.json")
	tracePath := filepath.Join(dir, "trace.jsonl")
	var sb strings.Builder
	err := run([]string{"-in", path, "-xi", "10", "-tau", "0.05",
		"-report", reportPath, "-trace", tracePath}, &sb)
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
			Points int    `json:"points"`
			Source string `json:"source"`
		} `json:"dataset"`
		Counters struct {
			PointsScanned   int64 `json:"points_scanned"`
			DenseUnitProbes int64 `json:"dense_unit_probes"`
		} `json:"counters"`
		Levels             int   `json:"levels"`
		DenseBySubspaceDim []int `json:"dense_by_subspace_dim"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Algorithm != "clique" {
		t.Errorf("algorithm = %q", rep.Algorithm)
	}
	if rep.Dataset.Points != 1000 || rep.Dataset.Source != path {
		t.Errorf("dataset info = %+v", rep.Dataset)
	}
	if rep.Counters.PointsScanned <= 0 || rep.Counters.DenseUnitProbes <= 0 {
		t.Errorf("counters not collected: %+v", rep.Counters)
	}
	if rep.Levels < 2 || len(rep.DenseBySubspaceDim) != rep.Levels {
		t.Errorf("lattice summary: levels %d, dense %v", rep.Levels, rep.DenseBySubspaceDim)
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(trace)), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace has only %d lines", len(lines))
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("trace line %d is not valid JSON: %s", i, line)
		}
	}
}

func TestRunStreamed(t *testing.T) {
	path := writeBlobData(t)
	var mem, str strings.Builder
	if err := run([]string{"-in", path, "-xi", "10", "-tau", "0.05"}, &mem); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-in", path, "-xi", "10", "-tau", "0.05",
		"-stream", "-block-points", "128"}, &str)
	if err != nil {
		t.Fatal(err)
	}
	got := str.String()
	for _, want := range []string{
		"clique: 1000 points × 4 dims",
		"quality: skipped",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("streamed output missing %q:\n%s", want, got)
		}
	}
	// The lattice summary is bit-identical to the in-memory run.
	for _, line := range strings.Split(mem.String(), "\n") {
		if strings.HasPrefix(line, "dense units") || strings.HasPrefix(line, "clusters:") {
			if !strings.Contains(got, line) {
				t.Fatalf("streamed run diverged from in-memory: missing %q\n%s", line, got)
			}
		}
	}
}

func TestRunStreamedWritesReport(t *testing.T) {
	path := writeBlobData(t)
	reportPath := filepath.Join(t.TempDir(), "report.json")
	var sb strings.Builder
	err := run([]string{"-in", path, "-xi", "10", "-tau", "0.05",
		"-stream", "-block-points", "200", "-report", reportPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Config struct {
			Stream      bool `json:"stream"`
			BlockPoints int  `json:"block_points"`
		} `json:"config"`
		Counters struct {
			StreamBlocks int64 `json:"stream_blocks"`
			StreamBytes  int64 `json:"stream_bytes"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if !rep.Config.Stream || rep.Config.BlockPoints != 200 {
		t.Errorf("config echo = %+v, want stream=true block_points=200", rep.Config)
	}
	if rep.Counters.StreamBlocks <= 0 || rep.Counters.StreamBytes <= 0 {
		t.Errorf("stream counters not recorded: %+v", rep.Counters)
	}
}

func TestRunStreamedRejectsCSV(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(csvPath, []byte("1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-in", csvPath, "-stream"}, &sb); err == nil {
		t.Fatal("-stream accepted a CSV input")
	}
}
