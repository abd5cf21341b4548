package benchcmp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proclus/internal/obs"
)

// fixtureFile builds a one-experiment telemetry file; mutate fields on
// the returned copy to synthesize candidates.
func fixtureFile() *File {
	return &File{
		Schema:    SchemaVersion,
		CreatedAt: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		GitRev:    "abc1234",
		Config:    Config{Experiment: "table1", N: 3000, Seed: 3},
		Records: []Record{{
			Experiment:  "table1",
			WallSeconds: 2.0,
			Runs:        1,
			PhaseSeconds: map[string]float64{
				"init": 0.2, "iterate": 1.0, "refine": 0.3,
			},
			Counters: obs.Snapshot{DistanceEvals: 100000, PointsScanned: 50000},
			NsPerOp:  1.5e9,
		}},
	}
}

func TestCompareWithinNoise(t *testing.T) {
	base := fixtureFile()
	cand := fixtureFile()
	// 20% time drift and 1% counter drift: both inside the default
	// thresholds (0.5 and 0.01).
	cand.Records[0].WallSeconds *= 1.2
	cand.Records[0].PhaseSeconds["iterate"] *= 1.2
	cand.Records[0].Counters.DistanceEvals = 101000
	rep, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasRegressions() {
		t.Errorf("within-noise drift flagged as regression: %+v", rep.Regressions)
	}
	if rep.Compared != 1 {
		t.Errorf("compared %d experiments, want 1", rep.Compared)
	}
	if len(rep.Improvements) != 0 {
		t.Errorf("spurious improvements: %+v", rep.Improvements)
	}
}

func TestCompareFlagsTimeRegression(t *testing.T) {
	base := fixtureFile()
	cand := fixtureFile()
	// A 2× slowdown in one phase must be flagged under the default 0.5
	// threshold (the acceptance scenario of the bench-check CI gate).
	cand.Records[0].PhaseSeconds["iterate"] *= 2
	rep, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasRegressions() {
		t.Fatal("2× phase-time regression not flagged")
	}
	var hit *Delta
	for i := range rep.Regressions {
		if rep.Regressions[i].Metric == "phase_seconds/iterate" {
			hit = &rep.Regressions[i]
		}
	}
	if hit == nil {
		t.Fatalf("iterate phase not in regressions: %+v", rep.Regressions)
	}
	if hit.Kind != "time" || hit.Ratio < 1.9 || hit.Ratio > 2.1 {
		t.Errorf("regression delta: %+v", *hit)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "REGRESSIONS") ||
		!strings.Contains(buf.String(), "phase_seconds/iterate") {
		t.Errorf("text report:\n%s", buf.String())
	}
}

func TestCompareFlagsWorkRegression(t *testing.T) {
	base := fixtureFile()
	cand := fixtureFile()
	// Deterministic counters use the tight threshold: +5% distance
	// evaluations is a regression even though +20% wall time is noise.
	cand.Records[0].Counters.DistanceEvals = 105000
	rep, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "counters/distance_evals" {
		t.Fatalf("regressions: %+v", rep.Regressions)
	}
	if rep.Regressions[0].Kind != "work" {
		t.Errorf("kind = %q, want work", rep.Regressions[0].Kind)
	}
}

// TestCompareFlagsDistCacheCounters pins the incremental engine's cache
// series into the work comparison: recompute growth past the tight
// threshold is a regression (the cache is doing more distance work),
// and hit-count drift is reported so it cannot move silently.
func TestCompareFlagsDistCacheCounters(t *testing.T) {
	base := fixtureFile()
	cand := fixtureFile()
	base.Records[0].Counters.DistCacheHits = 300000
	base.Records[0].Counters.DistCacheRecomputes = 150000
	cand.Records[0].Counters.DistCacheHits = 280000
	cand.Records[0].Counters.DistCacheRecomputes = 170000
	rep, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "counters/distcache_recomputes" {
		t.Fatalf("regressions: %+v", rep.Regressions)
	}
	if len(rep.Improvements) != 1 || rep.Improvements[0].Metric != "counters/distcache_hits" {
		t.Fatalf("improvements: %+v", rep.Improvements)
	}
}

func TestCompareFlagsImprovement(t *testing.T) {
	base := fixtureFile()
	cand := fixtureFile()
	cand.Records[0].PhaseSeconds["iterate"] /= 3
	cand.Records[0].WallSeconds = 0.6
	rep, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasRegressions() {
		t.Errorf("improvement misread as regression: %+v", rep.Regressions)
	}
	if len(rep.Improvements) == 0 {
		t.Error("3× speedup not reported as improvement")
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	base := fixtureFile()
	cand := fixtureFile()
	cand.Schema = SchemaVersion + 1
	if _, err := Compare(base, cand, Options{}); err == nil {
		t.Fatal("schema-version mismatch not rejected")
	}
	base.Schema = SchemaVersion + 1
	if _, err := Compare(base, cand, Options{}); err == nil {
		t.Fatal("matching but unsupported schema version not rejected")
	}
}

func TestCompareMinSecondsFloor(t *testing.T) {
	base := fixtureFile()
	cand := fixtureFile()
	// A 3 ms phase doubling stays under the 10 ms floor: not a
	// regression, however large the ratio.
	base.Records[0].PhaseSeconds["refine"] = 0.003
	cand.Records[0].PhaseSeconds["refine"] = 0.006
	rep, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Regressions {
		if d.Metric == "phase_seconds/refine" {
			t.Errorf("sub-floor timing flagged: %+v", d)
		}
	}
}

func TestCompareUnmatchedAndConfigMismatch(t *testing.T) {
	base := fixtureFile()
	cand := fixtureFile()
	cand.Records[0].Experiment = "table2"
	cand.Config.N = 9999
	rep, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compared != 0 {
		t.Errorf("compared %d, want 0", rep.Compared)
	}
	if len(rep.Unmatched) != 2 {
		t.Errorf("unmatched = %v", rep.Unmatched)
	}
	if !rep.ConfigMismatch {
		t.Error("config mismatch not detected")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), DefaultFileName(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)))
	if path == "" || !strings.Contains(path, "BENCH_20260805T120000Z.json") {
		t.Fatalf("default file name: %s", path)
	}
	f := fixtureFile()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.GitRev != "abc1234" || len(got.Records) != 1 {
		t.Errorf("round trip lost data: %+v", got)
	}
	if got.Records[0].PhaseSeconds["iterate"] != 1.0 {
		t.Errorf("phase map lost: %+v", got.Records[0].PhaseSeconds)
	}

	// Serialization must be byte-stable: phase maps sort their keys.
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("re-encoding not byte-stable:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
}

func TestLoadRejectsMissingSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(path, []byte(`{"Records":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("schema-less file accepted")
	}
	if err := os.WriteFile(path, []byte(`not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("malformed file accepted")
	}
}

func TestRecordTotalPhaseSeconds(t *testing.T) {
	r := fixtureFile().Records[0]
	if got := r.TotalPhaseSeconds(); got < 1.49 || got > 1.51 {
		t.Errorf("total phase seconds = %v", got)
	}
}

// TestDeltaJSONEncodable guards the finite-ratio invariant: a delta
// against a zero baseline must still marshal.
func TestDeltaJSONEncodable(t *testing.T) {
	base := fixtureFile()
	cand := fixtureFile()
	base.Records[0].Counters.DenseUnitProbes = 0
	cand.Records[0].Counters.DenseUnitProbes = 500
	rep, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasRegressions() {
		t.Fatal("zero-to-nonzero counter not flagged")
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report not JSON-encodable: %v", err)
	}
}

func TestCompareRecordsQuality(t *testing.T) {
	base := Record{
		Experiment: "run",
		Counters:   obs.Snapshot{DistanceEvals: 1000},
		Quality:    map[string]float64{"ari": 0.90, "nmi": 0.80, "legacy_only": 0.5},
	}
	cand := Record{
		Experiment: "run",
		Counters:   obs.Snapshot{DistanceEvals: 1000},
		Quality:    map[string]float64{"ari": 0.70, "nmi": 0.95},
	}
	rep := CompareRecords(base, cand, Options{})
	// ARI dropped beyond threshold -> regression; NMI rose -> improvement;
	// the key present on only one side is skipped.
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "quality/ari" {
		t.Errorf("regressions = %+v", rep.Regressions)
	}
	if len(rep.Improvements) != 1 || rep.Improvements[0].Metric != "quality/nmi" {
		t.Errorf("improvements = %+v", rep.Improvements)
	}
	if rep.Compared != 1 {
		t.Errorf("compared = %d", rep.Compared)
	}
}

func TestCompareRecordsIdentical(t *testing.T) {
	rec := Record{
		Experiment:   "run",
		PhaseSeconds: map[string]float64{"iterate": 1.5},
		Counters:     obs.Snapshot{DistanceEvals: 1000, PointsScanned: 500},
		Quality:      map[string]float64{"ari": 0.9},
	}
	rep := CompareRecords(rec, rec, Options{})
	if rep.HasRegressions() || len(rep.Improvements) != 0 {
		t.Errorf("identical records produced deltas: %+v", rep)
	}
}
