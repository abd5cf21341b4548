package archive

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proclus/internal/obs"
)

// stamp returns a fixed, distinct timestamp per sequence number so
// tests control archive ordering completely.
func stamp(n int) time.Time {
	return time.Date(2026, 8, 8, 12, 0, n, 0, time.UTC)
}

func testRun(n int, algorithm string) Run {
	rep := &obs.RunReport{
		Algorithm: algorithm,
		Dataset:   obs.DatasetInfo{Points: 100, Dims: 5},
		Seed:      uint64(n),
		Config:    map[string]int{"k": 5, "l": 3},
		Phases: []obs.PhaseReport{
			{Name: "initialize", Seconds: 0.1},
			{Name: "iterate", Seconds: 0.5},
		},
		Objective: float64(n),
	}
	rep.Counters.DistanceEvals = int64(1000 * (n + 1))
	rep.Counters.PointsScanned = 500
	run := FromReport(rep)
	run.CreatedAt = stamp(n)
	run.Quality = map[string]float64{"ari": 0.9}
	return run
}

func TestSaveLoadRoundtrip(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.SaveRun(testRun(1, "proclus"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(id, "-proclus") {
		t.Errorf("run ID %q does not end in algorithm slug", id)
	}
	rec, err := st.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Problems) != 0 {
		t.Errorf("clean entry loaded with problems: %v", rec.Problems)
	}
	m := rec.Manifest
	if m.Schema != SchemaVersion || m.Algorithm != "proclus" ||
		m.Seed != 1 || m.Objective != 1 {
		t.Errorf("manifest = %+v", m)
	}
	if m.Counters.DistanceEvals != 2000 || m.PhaseSeconds["iterate"] != 0.5 {
		t.Errorf("manifest counters/phases = %+v / %+v", m.Counters, m.PhaseSeconds)
	}
	if m.Quality["ari"] != 0.9 {
		t.Errorf("manifest quality = %+v", m.Quality)
	}
	var cfg map[string]int
	if err := json.Unmarshal(m.Config, &cfg); err != nil || cfg["k"] != 5 {
		t.Errorf("config echo = %s (%v)", m.Config, err)
	}
	if rec.Report == nil || rec.Report.Dataset.Points != 100 {
		t.Errorf("report = %+v", rec.Report)
	}
}

func TestListOrderingAndIndex(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Save out of chronological order; listing must come back sorted by
	// (timestamp, run ID).
	for _, n := range []int{3, 1, 2} {
		if _, err := st.SaveRun(testRun(n, "proclus")); err != nil {
			t.Fatal(err)
		}
	}
	ms, probs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 0 || len(ms) != 3 {
		t.Fatalf("list = %d manifests, %d problems", len(ms), len(probs))
	}
	for i, m := range ms {
		if m.Seed != uint64(i+1) {
			t.Errorf("position %d holds seed %d, want %d", i, m.Seed, i+1)
		}
	}
	idx, err := ReadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Runs) != 3 || idx.Schema != SchemaVersion {
		t.Fatalf("index = %+v", idx)
	}
	for i := range idx.Runs {
		if idx.Runs[i].RunID != ms[i].RunID {
			t.Errorf("index order diverges from listing at %d: %s vs %s",
				i, idx.Runs[i].RunID, ms[i].RunID)
		}
	}
}

func TestRunIDCollision(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two runs with the identical timestamp must still get distinct IDs.
	a, err := st.SaveRun(testRun(1, "proclus"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.SaveRun(testRun(1, "proclus"))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("colliding run IDs: %s", a)
	}
	if ms, _, _ := st.List(); len(ms) != 2 {
		t.Errorf("listed %d entries, want 2", len(ms))
	}
}

func TestCorruptionTolerance(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := st.SaveRun(testRun(1, "proclus"))
	if err != nil {
		t.Fatal(err)
	}
	truncated, err := st.SaveRun(testRun(2, "proclus"))
	if err != nil {
		t.Fatal(err)
	}
	noReport, err := st.SaveRun(testRun(3, "proclus"))
	if err != nil {
		t.Fatal(err)
	}

	// Inject damage: truncate one manifest mid-document, delete another
	// entry's report, and drop a stray non-entry directory.
	manifestPath := filepath.Join(dir, truncated, "manifest.json")
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, noReport, "report.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "not-an-entry"), 0o755); err != nil {
		t.Fatal(err)
	}

	ms, probs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Errorf("listed %d entries, want 2 (good + missing-report)", len(ms))
	}
	for _, m := range ms {
		if m.RunID == truncated {
			t.Error("truncated-manifest entry surfaced in listing")
		}
	}
	if len(probs) != 2 {
		t.Fatalf("problems = %+v, want 2 (truncated manifest + stray dir)", probs)
	}

	// A missing report degrades to a problem on load, not a failure —
	// the manifest alone still supports diff and trend.
	rec, err := st.Load(noReport)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Report != nil || len(rec.Problems) != 1 ||
		!strings.Contains(rec.Problems[0], "report.json") {
		t.Errorf("missing-report record = report %v, problems %v", rec.Report, rec.Problems)
	}
	// A truncated manifest is fatal for that entry only.
	if _, err := st.Load(truncated); err == nil {
		t.Error("loading a truncated manifest succeeded")
	}
	if _, err := st.Load(good); err != nil {
		t.Errorf("good entry failed to load: %v", err)
	}
	// Path traversal in IDs is rejected.
	if _, err := st.Load("../" + good); err == nil {
		t.Error("traversal run ID accepted")
	}
}

func TestRetentionGC(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 4; n++ {
		if _, err := st.SaveRun(testRun(n, "proclus")); err != nil {
			t.Fatal(err)
		}
	}
	ms, _, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("retained %d entries, want 2", len(ms))
	}
	// The newest two survive.
	if ms[0].Seed != 3 || ms[1].Seed != 4 {
		t.Errorf("retained seeds %d,%d, want 3,4", ms[0].Seed, ms[1].Seed)
	}
}

// TestOlderManifestsStillList pins how manifests from other writers
// load. One carrying a field this version no longer writes (the
// "kind" of the retired benchmark entries) still lists, and a missing
// report degrades to a Problem on Load. One from a newer schema is
// skipped and reported.
func TestOlderManifestsStillList(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := st.SaveRun(testRun(1, "proclus"))
	if err != nil {
		t.Fatal(err)
	}
	future, err := st.SaveRun(testRun(2, "proclus"))
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(id string, edit func(map[string]any)) {
		path := filepath.Join(dir, id, "manifest.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		edit(doc)
		if data, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(legacy, func(doc map[string]any) { doc["kind"] = "bench" })
	if err := os.Remove(filepath.Join(dir, legacy, "report.json")); err != nil {
		t.Fatal(err)
	}
	// Older versions also saved a metric-registry snapshot; it is
	// ignored, not reported as a problem.
	if err := os.WriteFile(filepath.Join(dir, legacy, "metrics.json"),
		[]byte(`[{"name":"proclus_distance_evals_total","kind":"counter","value":2000}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	rewrite(future, func(doc map[string]any) { doc["schema"] = SchemaVersion + 1 })

	ms, probs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].RunID != legacy || ms[0].Counters.DistanceEvals != 2000 {
		t.Errorf("listing = %+v, want only the legacy entry with its counters", ms)
	}
	if len(probs) != 1 || probs[0].RunID != future || !strings.Contains(probs[0].Err, "newer") {
		t.Errorf("problems = %+v, want the newer-schema entry", probs)
	}
	rec, err := st.Load(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Report != nil || len(rec.Problems) != 1 || rec.Problems[0] != "report.json: missing" {
		t.Errorf("legacy record = report %v, problems %v", rec.Report, rec.Problems)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Error("empty directory accepted")
	}
}
