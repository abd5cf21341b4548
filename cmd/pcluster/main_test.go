package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proclus/internal/clique"
	"proclus/internal/core"
	"proclus/internal/dataset"
	"proclus/internal/eval"
	"proclus/internal/obs/archive"
	"proclus/internal/obs/series"
	"proclus/internal/randx"
	"proclus/internal/registry"
	"proclus/internal/synth"
)

// writeData generates a small labeled binary dataset with three
// projected clusters and returns its path.
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

// writeBlobData writes one dense 2-dimensional blob in 4 dimensions plus
// uniform outliers: a small CLIQUE input with a multi-unit region.
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

// runOK runs the CLI and fails the test on error, returning its output.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return sb.String()
}

func TestListNames(t *testing.T) {
	got := runOK(t, "-list")
	for _, name := range []string{"clique", "kmedoids", "orclus", "proclus"} {
		if !strings.Contains(got, name) {
			t.Errorf("-list output missing %q:\n%s", name, got)
		}
	}
}

// TestRunEachAlgorithm drives every registered algorithm through the
// CLI with its own parameter set and checks the summary: dimension sets
// where the algorithm has them, the confusion matrix and purity for the
// partitioning algorithms, overlap and coverage for CLIQUE, ARI/NMI for
// all.
func TestRunEachAlgorithm(t *testing.T) {
	path := writeData(t)
	cases := []struct {
		algo string
		args []string
		want []string
	}{
		{"proclus", []string{"-k", "3", "-l", "3"},
			[]string{"objective:", "dims [", "confusion matrix", "purity:"}},
		{"clique", []string{"-tau", "0.02", "-mdl", "-highest"},
			[]string{"dense units per subspace dimensionality:", "dims [", "average overlap:", "cluster-point coverage:"}},
		{"orclus", []string{"-k", "3", "-l", "3"},
			[]string{"objective:", "confusion matrix", "purity:"}},
		{"kmedoids", []string{"-k", "3"},
			[]string{"objective:", "confusion matrix", "purity:"}},
	}
	for _, tc := range cases {
		got := runOK(t, append([]string{"-algo", tc.algo, "-in", path}, tc.args...)...)
		if !strings.HasPrefix(got, tc.algo+": 1000 points × 8 dims — ") {
			t.Errorf("%s: first line changed form:\n%s", tc.algo, got)
		}
		for _, want := range append(tc.want, "clusters:", "ARI:", "NMI:") {
			if !strings.Contains(got, want) {
				t.Errorf("%s output missing %q:\n%s", tc.algo, want, got)
			}
		}
		if tc.algo == "clique" && strings.Contains(got, "objective:") {
			t.Errorf("clique has no objective, yet its summary prints one:\n%s", got)
		}
	}

	// On 200 copies of one point every partitioning fit reaches
	// objective 0, and the summary must still print it.
	dup := filepath.Join(t.TempDir(), "dup.csv")
	if err := os.WriteFile(dup, []byte(strings.Repeat("1,2,3,4\n", 200)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-algo", "proclus", "-k", "3", "-l", "2"},
		{"-algo", "orclus", "-k", "3", "-l", "2"},
		{"-algo", "kmedoids", "-k", "3"},
	} {
		got := runOK(t, append(args, "-in", dup)...)
		if !strings.Contains(got, "\nobjective: 0.0000\n") {
			t.Errorf("%v: summary lacks \"objective: 0.0000\":\n%s", args, got)
		}
	}
}

// TestRejectsUnsupportedCombos pins the contract that nothing is
// silently ignored: a flag the selected algorithm or input mode cannot
// honor fails with an error naming the problem, and a rejected run
// leaves no -series file behind.
func TestRejectsUnsupportedCombos(t *testing.T) {
	path := writeData(t)
	dir := t.TempDir()
	seriesPath := filepath.Join(dir, "s.json")
	csvPath := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(csvPath, []byte("1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "clique", "-in", path, "-k", "3"}, "clique"},
		{[]string{"-algo", "orclus", "-in", path, "-k", "3", "-l", "2", "-stream"}, "orclus"},
		{[]string{"-algo", "kmedoids", "-in", path, "-k", "3", "-workers", "4"}, "kmedoids"},
		{[]string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3", "-xi", "8"}, "proclus"},
		{[]string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3", "-restarts", "2"}, "proclus"},
		{[]string{"-algo", "dbscan", "-in", path}, "proclus"}, // lists the registered names
		{[]string{"-algo", "orclus", "-in", path, "-k", "3", "-l", "2", "-series", seriesPath}, "unsupported: orclus"},
		{[]string{"-algo", "kmedoids", "-in", path, "-k", "3", "-series", seriesPath}, "unsupported: kmedoids"},
		{[]string{"-algo", "orclus", "-in", path, "-k", "3", "-l", "2", "-stall-iters", "5"}, "unsupported: orclus"},
		{[]string{"-algo", "orclus", "-in", path, "-k", "3", "-l", "2", "-stall-deadline", "1ns"}, "unsupported: orclus"},
		{[]string{"-algo", "orclus", "-in", path, "-k", "3", "-l", "2", "-stall-cancel"}, "unsupported: orclus"},
		{[]string{"-algo", "kmedoids", "-in", path, "-k", "3", "-stall-cancel"}, "unsupported: kmedoids"},
		{[]string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3", "-block-points", "7"}, "only with -stream"},
		{[]string{"-algo", "clique", "-in", path, "-sweepl", "2:4"}, "proclus only"},
		{[]string{"-algo", "orclus", "-in", path, "-k", "3", "-sweepk", "2:4"}, "proclus only"},
		{[]string{"-algo", "proclus", "-in", path, "-k", "3", "-sweepl", "2:4", "-sweepk", "2:4"}, "exclusive"},
		{[]string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3", "-v"}, "-v"},
		{[]string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3", "-stream", "-normalize", "minmax"}, "-normalize"},
		{[]string{"-algo", "proclus", "-in", path, "-k", "3", "-stream", "-sweepl", "2:5"}, "-sweepl"},
		{[]string{"-algo", "proclus", "-in", path, "-l", "3", "-stream", "-sweepk", "2:4"}, "-sweepk"},
		{[]string{"-algo", "proclus", "-in", csvPath, "-k", "2", "-l", "2", "-stream"}, "binary"},
		{[]string{"-algo", "clique", "-in", csvPath, "-stream"}, "binary"},
	}
	for _, tc := range cases {
		var sb strings.Builder
		err := run(tc.args, &sb)
		if err == nil {
			t.Errorf("%v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
	if _, err := os.Stat(seriesPath); !os.IsNotExist(err) {
		t.Error("a rejected run still wrote its -series file")
	}
}

// TestRunErrors checks that bad parameters and inputs fail the run, and
// that a failed proclus or clique run leaves no -series file behind.
func TestRunErrors(t *testing.T) {
	path := writeData(t)
	blob := writeBlobData(t)
	dir := t.TempDir()
	seriesPath := filepath.Join(dir, "s.json")
	withSeries := func(args ...string) []string { return append(args, "-series", seriesPath) }
	cases := [][]string{
		withSeries("-algo", "proclus", "-in", filepath.Join(dir, "absent.bin"), "-k", "2", "-l", "3"),
		withSeries("-algo", "proclus", "-in", path, "-k", "2"),
		withSeries("-algo", "proclus", "-in", path, "-k", "2", "-l", "99"),
		withSeries("-algo", "proclus", "-in", path, "-k", "2", "-sweepl", "banana"),
		withSeries("-algo", "proclus", "-in", path, "-k", "2", "-sweepl", "5:2"),
		withSeries("-algo", "proclus", "-in", path, "-k", "2", "-l", "3", "-normalize", "nope"),
		withSeries("-algo", "proclus", "-in", path, "-k", "2", "-l", "3", "-trace", filepath.Join(dir, "nodir", "t.jsonl")),
		withSeries("-algo", "clique", "-in", blob, "-xi", "1"),
		{"-algo", "orclus", "-in", path, "-k", "2"},
		{"-algo", "orclus", "-in", path, "-k", "2", "-l", "99"},
		{"-algo", "kmedoids", "-in", path, "-k", "3", "-restarts", "-1"},
		{"-algo", "kmedoids", "-in", path, "-k", "3", "-max-neighbors", "-1"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("%v accepted", args)
		}
		if _, err := os.Stat(seriesPath); !os.IsNotExist(err) {
			t.Fatalf("%v: failed run left a -series file (stat err %v)", args, err)
		}
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

func TestParseRange(t *testing.T) {
	if lo, hi, err := parseRange("2:7"); err != nil || lo != 2 || hi != 7 {
		t.Fatalf("parseRange: %d %d %v", lo, hi, err)
	}
	for _, bad := range []string{"", "3", "a:b", "2:"} {
		if _, _, err := parseRange(bad); err == nil {
			t.Errorf("parseRange(%q) accepted", bad)
		}
	}
}

// TestSweeps runs the l and k sweeps: each prints the objective curve
// and its suggestion, then summarizes and reports the suggested fit.
func TestSweeps(t *testing.T) {
	path := writeData(t)
	cases := []struct {
		args   []string
		param  string
		lo, hi int
	}{
		{[]string{"-k", "3", "-sweepl", "2:5"}, "l", 2, 5},
		{[]string{"-l", "3", "-sweepk", "1:4"}, "k", 1, 4},
	}
	for _, tc := range cases {
		reportPath := filepath.Join(t.TempDir(), "report.json")
		args := append([]string{"-algo", "proclus", "-in", path, "-report", reportPath}, tc.args...)
		got := runOK(t, args...)
		for _, want := range []string{"proclus: 1000 points", "← suggested", "suggested " + tc.param + ":", "confusion matrix"} {
			if !strings.Contains(got, want) {
				t.Errorf("%v: output missing %q:\n%s", tc.args, want, got)
			}
		}
		data, err := os.ReadFile(reportPath)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Algorithm string `json:"algorithm"`
			Config    struct {
				K int `json:"k"`
				L int `json:"l"`
			} `json:"config"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("sweep report is not valid JSON: %v", err)
		}
		v := map[string]int{"k": rep.Config.K, "l": rep.Config.L}[tc.param]
		if rep.Algorithm != "proclus" || v < tc.lo || v > tc.hi {
			t.Errorf("%v: report algorithm %q, %s = %d", tc.args, rep.Algorithm, tc.param, v)
		}
	}
}

// TestNormalize checks that each -normalize mode rescales the data the
// fit sees: the objective, a distance, changes with the scale.
func TestNormalize(t *testing.T) {
	path := writeData(t)
	args := []string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3"}
	objective := func(out string) string {
		_, rest, _ := strings.Cut(out, "objective: ")
		line, _, _ := strings.Cut(rest, "\n")
		return line
	}
	plain := objective(runOK(t, args...))
	for _, mode := range []string{"minmax", "zscore"} {
		got := runOK(t, append(args, "-normalize", mode)...)
		if obj := objective(got); obj == "" || obj == plain || !strings.Contains(got, "ARI:") {
			t.Errorf("%s: objective %q (unnormalized %q):\n%s", mode, obj, plain, got)
		}
	}
}

// reportDoc is the part of the -report JSON the tests inspect.
type reportDoc struct {
	Algorithm string `json:"algorithm"`
	Dataset   struct {
		Points  int    `json:"points"`
		Labeled bool   `json:"labeled"`
		Source  string `json:"source"`
	} `json:"dataset"`
	Config struct {
		Stream      bool `json:"stream"`
		BlockPoints int  `json:"block_points"`
	} `json:"config"`
	Counters struct {
		DistanceEvals   int64 `json:"distance_evals"`
		PointsScanned   int64 `json:"points_scanned"`
		DenseUnitProbes int64 `json:"dense_unit_probes"`
		StreamBlocks    int64 `json:"stream_blocks"`
		StreamBytes     int64 `json:"stream_bytes"`
	} `json:"counters"`
	Objective          float64 `json:"objective"`
	Levels             int     `json:"levels"`
	DenseBySubspaceDim []int   `json:"dense_by_subspace_dim"`
	Clusters           []struct {
		Size int `json:"size"`
	} `json:"clusters"`
}

func readReport(t *testing.T, path string) reportDoc {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc reportDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	return doc
}

// TestRunWritesReportAndTrace checks the -report, -trace and profile
// files of an in-memory fit per algorithm: the report carries the
// dataset provenance and the algorithm's own counters, and the trace is
// valid JSON lines bracketed by run_start and run_end.
func TestRunWritesReportAndTrace(t *testing.T) {
	path := writeData(t)
	blob := writeBlobData(t)
	cases := []struct {
		algo, in string
		args     []string
		check    func(reportDoc) bool
	}{
		{"proclus", path, []string{"-k", "3", "-l", "3"}, func(r reportDoc) bool {
			return len(r.Clusters) == 3 && r.Counters.DistanceEvals > 0 && r.Counters.PointsScanned > 0
		}},
		{"clique", blob, []string{"-xi", "10", "-tau", "0.05"}, func(r reportDoc) bool {
			return r.Counters.PointsScanned > 0 && r.Counters.DenseUnitProbes > 0 &&
				r.Levels >= 2 && len(r.DenseBySubspaceDim) == r.Levels
		}},
		{"orclus", path, []string{"-k", "3", "-l", "2"}, func(r reportDoc) bool {
			return len(r.Clusters) == 3 && r.Objective != 0
		}},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		reportPath := filepath.Join(dir, "report.json")
		tracePath := filepath.Join(dir, "trace.jsonl")
		cpuPath := filepath.Join(dir, "cpu.pprof")
		memPath := filepath.Join(dir, "mem.pprof")
		args := append([]string{"-algo", tc.algo, "-in", tc.in, "-report", reportPath, "-trace", tracePath,
			"-cpuprofile", cpuPath, "-memprofile", memPath}, tc.args...)
		runOK(t, args...)

		rep := readReport(t, reportPath)
		if rep.Algorithm != tc.algo || rep.Dataset.Points != 1000 || !rep.Dataset.Labeled || rep.Dataset.Source != tc.in {
			t.Errorf("%s: report algorithm %q, dataset %+v", tc.algo, rep.Algorithm, rep.Dataset)
		}
		if !tc.check(rep) {
			t.Errorf("%s: report fields: %+v", tc.algo, rep)
		}

		trace, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(trace)), "\n")
		var types []string
		for i, line := range lines {
			var ev struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("%s: trace line %d is not valid JSON: %v", tc.algo, i, err)
			}
			types = append(types, ev.Type)
		}
		if types[0] != "run_start" || types[len(types)-1] != "run_end" {
			t.Errorf("%s: trace bracketing: %v", tc.algo, types)
		}
		for _, p := range []string{cpuPath, memPath} {
			if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty (err %v)", tc.algo, p, err)
			}
		}
	}
}

func TestRunChromeTrace(t *testing.T) {
	path := writeData(t)
	chrome := filepath.Join(t.TempDir(), "trace.json")
	runOK(t, "-algo", "proclus", "-in", path, "-k", "3", "-l", "3", "-chrometrace", chrome)
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome trace empty")
	}
}

func TestRunProgressLogs(t *testing.T) {
	path := writeData(t)
	got := runOK(t, "-algo", "proclus", "-in", path, "-k", "3", "-l", "3", "-progress")
	if !strings.HasPrefix(got, "proclus:") {
		t.Fatalf("output missing header:\n%s", got)
	}
}

// TestRunObservabilityInvariant pins that attaching every observability
// output changes no output apart from the elapsed time, and that the
// -series file holds the hill climb's objective trajectory.
func TestRunObservabilityInvariant(t *testing.T) {
	path := writeData(t)
	dir := t.TempDir()
	seriesPath := filepath.Join(dir, "s.json")
	args := []string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3"}
	plain := runOK(t, args...)
	observed := runOK(t, append(args,
		"-trace", filepath.Join(dir, "t.jsonl"),
		"-chrometrace", filepath.Join(dir, "chrome.json"),
		"-progress",
		"-series", seriesPath,
		"-report", filepath.Join(dir, "r.json"))...)
	stripTiming := func(s string) string {
		first, rest, _ := strings.Cut(s, "\n")
		return first[:strings.LastIndex(first, "—")] + "\n" + rest
	}
	if stripTiming(plain) != stripTiming(observed) {
		t.Errorf("observability changed output:\n--- plain ---\n%s\n--- observed ---\n%s", plain, observed)
	}
	snap, err := series.ReadSnapshotFile(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	if s := snap.Find(core.SeriesIterObjective, series.L("restart", "1")); s == nil || s.Total == 0 {
		t.Errorf("series file has no %s for restart 1: %+v", core.SeriesIterObjective, snap)
	}
}

// TestStreamedProclus exercises the out-of-core path: labeled quality
// still works through the label scan.
func TestStreamedProclus(t *testing.T) {
	path := writeData(t)
	got := runOK(t, "-algo", "proclus", "-in", path, "-k", "3", "-l", "3", "-stream", "-block-points", "256")
	for _, want := range []string{"proclus: 1000 points × 8 dims", "dims [", "confusion matrix", "purity:", "ARI:", "NMI:"} {
		if !strings.Contains(got, want) {
			t.Errorf("streamed output missing %q:\n%s", want, got)
		}
	}
}

// TestStreamedReportConfigEcho checks that a streamed fit's report
// echoes the stream mode and block size and counts the blocks read.
func TestStreamedReportConfigEcho(t *testing.T) {
	path := writeData(t)
	blob := writeBlobData(t)
	cases := []struct {
		algo, in string
		args     []string
	}{
		{"proclus", path, []string{"-k", "3", "-l", "3"}},
		{"clique", blob, []string{"-xi", "10", "-tau", "0.05"}},
	}
	for _, tc := range cases {
		reportPath := filepath.Join(t.TempDir(), "run.json")
		runOK(t, append([]string{"-algo", tc.algo, "-in", tc.in, "-stream", "-block-points", "200",
			"-report", reportPath}, tc.args...)...)
		rep := readReport(t, reportPath)
		if !rep.Config.Stream || rep.Config.BlockPoints != 200 {
			t.Errorf("%s: config echo = %+v, want stream=true block_points=200", tc.algo, rep.Config)
		}
		if rep.Counters.StreamBlocks <= 0 || rep.Counters.StreamBytes <= 0 {
			t.Errorf("%s: stream counters not recorded: %+v", tc.algo, rep.Counters)
		}
	}
}

// TestStreamedCliqueSkipsQuality checks that a streamed CLIQUE fit finds
// the same lattice and clusters as the in-memory fit, skips the quality
// measures that need per-point membership, and refuses -assign.
func TestStreamedCliqueSkipsQuality(t *testing.T) {
	path := writeBlobData(t)
	args := []string{"-algo", "clique", "-in", path, "-xi", "10", "-tau", "0.05", "-v"}
	mem := runOK(t, args...)
	str := runOK(t, append(args, "-stream", "-block-points", "128")...)
	if !strings.Contains(str, "quality: skipped") {
		t.Errorf("streamed clique should skip quality:\n%s", str)
	}
	for _, line := range strings.Split(mem, "\n") {
		if strings.HasPrefix(line, "dense units") || strings.HasPrefix(line, "clusters:") ||
			strings.HasPrefix(line, "  cluster ") || strings.Contains(line, "region ") {
			if !strings.Contains(str, line+"\n") {
				t.Errorf("streamed run diverged from in-memory: missing %q\n%s", line, str)
			}
		}
	}
	var sb strings.Builder
	if err := run(append(args, "-stream", "-assign", filepath.Join(t.TempDir(), "a.csv")), &sb); err == nil {
		t.Error("-assign on a streamed clique fit accepted")
	}
}

// TestCliqueVerboseAndReportingModes runs CLIQUE's reporting modes; -v
// lists each cluster's regions.
func TestCliqueVerboseAndReportingModes(t *testing.T) {
	path := writeBlobData(t)
	for _, flags := range [][]string{
		{"-v"},
		{"-highest"},
		{"-maximal"},
		{"-fixeddims", "2"},
		{"-mdl"},
		{"-maxdims", "2"},
	} {
		got := runOK(t, append([]string{"-algo", "clique", "-in", path, "-xi", "10", "-tau", "0.05"}, flags...)...)
		if verbose := flags[0] == "-v"; verbose != strings.Contains(got, "      region ") {
			t.Errorf("%v: region descriptions listed = %v:\n%s", flags, !verbose, got)
		}
	}
}

// TestCliqueOverlapCoverage checks the summary's average overlap and
// coverage, derived from the partition view, against eval's definitions
// over the overlapping memberships.
func TestCliqueOverlapCoverage(t *testing.T) {
	for _, path := range []string{writeBlobData(t), writeData(t)} {
		ds, err := dataset.LoadFile(path, false)
		if err != nil {
			t.Fatal(err)
		}
		m, err := registry.Fit(context.Background(), "clique", registry.Source{Dataset: ds},
			registry.Config{Clique: registry.CliqueParams{Tau: 0.02}})
		if err != nil {
			t.Fatal(err)
		}
		members := clique.Membership(ds, m.Unwrap().(*clique.Result))
		ov, err := eval.AverageOverlap(members)
		if err != nil {
			t.Fatal(err)
		}
		got := runOK(t, "-algo", "clique", "-in", path, "-tau", "0.02")
		for _, want := range []string{
			fmt.Sprintf("average overlap: %.2f\n", ov),
			fmt.Sprintf("cluster-point coverage: %.1f%%\n", 100*eval.Coverage(ds.Labels(), members)),
		} {
			if !strings.Contains(got, want) {
				t.Errorf("%s: output missing %q:\n%s", filepath.Base(path), want, got)
			}
		}
	}
}

// TestStallCancelAbortsInMemoryAndStreamed wires the hair-trigger stall
// watchdog to the run context: the command must fail with a
// cancellation error, must not leave a partial assignment file behind,
// and must still flush the series recorded before the abort.
func TestStallCancelAbortsInMemoryAndStreamed(t *testing.T) {
	path := writeData(t)
	for _, mode := range []string{"", "-stream"} {
		dir := t.TempDir()
		assignPath := filepath.Join(dir, "a.csv")
		seriesPath := filepath.Join(dir, "s.json")
		args := []string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3",
			"-stall-iters", "1", "-stall-cancel", "-assign", assignPath, "-series", seriesPath}
		if mode != "" {
			args = append(args, mode)
		}
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil || !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("%q: stalled run error = %v, want context cancellation", mode, err)
		}
		if _, statErr := os.Stat(assignPath); !os.IsNotExist(statErr) {
			t.Errorf("%q: aborted run left an assignment file (stat err %v)", mode, statErr)
		}
		snap, readErr := series.ReadSnapshotFile(seriesPath)
		if readErr != nil {
			t.Fatalf("%q: series snapshot not flushed: %v", mode, readErr)
		}
		if s := snap.Find(core.SeriesIterObjective, series.L("restart", "1")); s == nil || s.Total == 0 {
			t.Errorf("%q: flushed snapshot has no objective series", mode)
		}
	}
}

// TestAssignMatchesFitInMemoryAndStreamed checks the -assign CSV byte
// for byte against the assignments of a direct registry fit with the
// same configuration, for every algorithm and for streamed PROCLUS.
func TestAssignMatchesFitInMemoryAndStreamed(t *testing.T) {
	path := writeData(t)
	ds, err := dataset.LoadFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo string
		cfg  registry.Config
		args []string
	}{
		{"proclus", registry.Config{K: 3, L: 3, Seed: 1}, []string{"-k", "3", "-l", "3"}},
		{"proclus", registry.Config{K: 3, L: 3, Seed: 1}, []string{"-k", "3", "-l", "3", "-stream", "-block-points", "256"}},
		{"clique", registry.Config{Clique: registry.CliqueParams{Tau: 0.02, ReportHighest: true}}, []string{"-tau", "0.02", "-highest"}},
		{"orclus", registry.Config{K: 3, L: 3, Seed: 1}, []string{"-k", "3", "-l", "3"}},
		{"kmedoids", registry.Config{K: 3, Seed: 1}, []string{"-k", "3"}},
	}
	for _, tc := range cases {
		m, err := registry.Fit(context.Background(), tc.algo, registry.Source{Dataset: ds}, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		want, got := filepath.Join(dir, "want.csv"), filepath.Join(dir, "got.csv")
		if err := dataset.SaveAssignments(want, m.Assignments()); err != nil {
			t.Fatal(err)
		}
		runOK(t, append([]string{"-algo", tc.algo, "-in", path, "-assign", got}, tc.args...)...)
		wantData, err1 := os.ReadFile(want)
		gotData, err2 := os.ReadFile(got)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.HasPrefix(gotData, []byte("point,cluster\n")) || !bytes.Equal(gotData, wantData) {
			t.Errorf("%s %v: -assign CSV differs from the fit's assignments", tc.algo, tc.args)
		}
	}
}

// TestReportAssignArchive checks -report, -assign and -archive together
// and that the archived run carries the quality indices its summary
// printed.
func TestReportAssignArchive(t *testing.T) {
	path := writeData(t)
	cases := []struct {
		algo     string
		args     []string
		clusters int
		quality  []string
	}{
		{"kmedoids", []string{"-k", "3"}, 3, []string{"purity", "ari", "nmi"}},
		{"orclus", []string{"-k", "3", "-l", "2"}, 3, []string{"purity", "ari", "nmi"}},
		{"clique", []string{"-tau", "0.02", "-highest"}, -1, []string{"coverage", "ari", "nmi"}},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		report := filepath.Join(dir, "run.json")
		assign := filepath.Join(dir, "assign.csv")
		arch := filepath.Join(dir, "runs")
		runOK(t, append([]string{"-algo", tc.algo, "-in", path,
			"-report", report, "-assign", assign, "-archive", arch}, tc.args...)...)
		rep := readReport(t, report)
		if rep.Algorithm != tc.algo || (tc.clusters >= 0 && len(rep.Clusters) != tc.clusters) {
			t.Errorf("%s: report fields: %+v", tc.algo, rep)
		}
		if as, err := os.ReadFile(assign); err != nil || !strings.HasPrefix(string(as), "point,cluster\n") {
			t.Errorf("%s: assignment CSV header missing (err %v)", tc.algo, err)
		}
		st, err := archive.Open(arch, archive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		runs, _, err := st.List()
		if err != nil || len(runs) != 1 {
			t.Fatalf("%s: archive holds %d runs (err %v), want 1", tc.algo, len(runs), err)
		}
		for _, key := range tc.quality {
			if _, ok := runs[0].Quality[key]; !ok {
				t.Errorf("%s: archived quality %v lacks %q", tc.algo, runs[0].Quality, key)
			}
		}
	}
}

// TestRunOverflowingCoordinates runs PROCLUS on 400 points whose first
// coordinate alternates between +1e308 and −1e308: every value is
// finite, but a cluster's coordinate sums overflow. The fit must fail
// with the overflow error, in memory and streamed, and write no
// -assign file.
func TestRunOverflowingCoordinates(t *testing.T) {
	rng := randx.New(1)
	ds := dataset.New(6)
	pt := make([]float64, 6)
	for i := 0; i < 400; i++ {
		pt[0] = 1e308
		if i%2 == 1 {
			pt[0] = -1e308
		}
		for j := 1; j < len(pt); j++ {
			pt[j] = rng.Uniform(0, 10)
		}
		ds.Append(pt)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "huge.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	assign := filepath.Join(dir, "assign.csv")
	for _, extra := range [][]string{nil, {"-stream"}} {
		args := append([]string{"-algo", "proclus", "-in", path, "-k", "3", "-l", "3", "-seed", "5",
			"-assign", assign}, extra...)
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil || !strings.Contains(err.Error(), "proclus: restart 1, trial 1: the objective overflowed") {
			t.Errorf("%v: error %v, want the overflow error", extra, err)
		}
		if _, err := os.Stat(assign); !os.IsNotExist(err) {
			t.Errorf("%v: failed fit left an -assign file (stat: %v)", extra, err)
		}
	}
}
