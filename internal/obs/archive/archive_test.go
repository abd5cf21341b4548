package archive

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"proclus/internal/obs"
	"proclus/internal/obs/series"
)

// stamp returns a fixed, distinct timestamp per sequence number so
// tests control archive ordering completely.
func stamp(n int) time.Time {
	return time.Date(2026, 8, 8, 12, 0, n, 0, time.UTC)
}

func testEntry(n int, algorithm string) Entry {
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
		Quality:   map[string]float64{"ari": 0.9},
	}
	rep.Counters.DistanceEvals = int64(1000 * (n + 1))
	rep.Counters.PointsScanned = 500
	return Entry{CreatedAt: stamp(n), Report: rep}
}

// mustSave saves e and returns its run ID.
func mustSave(t *testing.T, st *Store, e Entry) string {
	t.Helper()
	id, err := st.Save(e)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestSaveLoadRoundtrip saves one entry and lists it back: the entry
// directory holds only run.json, the store stamps schema and run ID,
// and the listed report is deep-equal to the saved one, series and
// quality included.
func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, "proclus")
	e.GitRev = "abc1234"
	e.Report.Series = series.StoreSnapshot{{
		Name:     "iter_objective",
		Labels:   []series.Label{{Key: "restart", Value: "1"}},
		Capacity: 4,
		Total:    2,
		Points:   []series.Point{{X: 1, V: 3.5}, {X: 2, V: 2.75}},
	}}
	id := mustSave(t, st, e)
	if !strings.HasSuffix(id, "-proclus") {
		t.Errorf("run ID %q does not end in algorithm slug", id)
	}
	files, err := os.ReadDir(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != "run.json" {
		t.Errorf("entry directory holds %v, want only run.json", files)
	}

	es, probs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || len(probs) != 0 {
		t.Fatalf("list = %d entries, problems %v", len(es), probs)
	}
	got := es[0]
	if got.Schema != SchemaVersion || got.RunID != id || got.GitRev != "abc1234" ||
		!got.CreatedAt.Equal(stamp(1)) {
		t.Errorf("entry provenance = %+v", got)
	}
	// The listed report went through JSON, whose config echo decodes
	// to a generic map; compare it with the saved report after the
	// same round trip.
	var want obs.RunReport
	data, err := json.Marshal(e.Report)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Report, &want) {
		t.Errorf("listed report = %+v, want %+v", got.Report, &want)
	}
	if len(got.Report.Series) != 1 || got.Report.Quality["ari"] != 0.9 {
		t.Errorf("listed report lost its series or quality: %+v", got.Report)
	}
}

// TestListOrderingAndIndex checks that List returns entries sorted by
// (creation time, run ID) whatever order they were saved in, and that
// the archive root holds only entry directories: no index file.
func TestListOrderingAndIndex(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Save out of chronological order; listing must come back sorted by
	// (timestamp, run ID).
	for _, n := range []int{3, 1, 2} {
		mustSave(t, st, testEntry(n, "proclus"))
	}
	es, probs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 0 || len(es) != 3 {
		t.Fatalf("list = %d entries, %d problems", len(es), len(probs))
	}
	for i, e := range es {
		if e.Report.Seed != uint64(i+1) {
			t.Errorf("position %d holds seed %d, want %d", i, e.Report.Seed, i+1)
		}
	}
	root, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range root {
		if !de.IsDir() {
			t.Errorf("archive root holds the file %s", de.Name())
		}
	}
}

func TestRunIDCollision(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two runs with the identical timestamp must still get distinct IDs.
	a := mustSave(t, st, testEntry(1, "proclus"))
	b := mustSave(t, st, testEntry(1, "proclus"))
	if a == b {
		t.Fatalf("colliding run IDs: %s", a)
	}
	if es, _, _ := st.List(); len(es) != 2 {
		t.Errorf("listed %d entries, want 2", len(es))
	}
}

// TestCorruptionTolerance damages entries in four ways. Each damaged
// entry is one Problem, and the good entry still lists.
func TestCorruptionTolerance(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := mustSave(t, st, testEntry(1, "proclus"))
	truncated := mustSave(t, st, testEntry(2, "proclus"))
	renamed := mustSave(t, st, testEntry(3, "proclus"))
	noReport := mustSave(t, st, testEntry(4, "proclus"))

	edit := func(id string, change func([]byte) []byte) {
		path := filepath.Join(dir, id, "run.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, change(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A write cut off mid-document.
	edit(truncated, func(data []byte) []byte { return data[:len(data)/2] })
	// A run.json copied under another entry's name.
	other := filepath.Join(dir, "20260808T120009.000000000Z-proclus")
	if err := os.Rename(filepath.Join(dir, renamed), other); err != nil {
		t.Fatal(err)
	}
	// An entry whose report is gone.
	edit(noReport, func(data []byte) []byte {
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		delete(doc, "report")
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	// A stray directory that is no entry at all.
	if err := os.Mkdir(filepath.Join(dir, "not-an-entry"), 0o755); err != nil {
		t.Fatal(err)
	}

	es, probs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || es[0].RunID != good {
		t.Errorf("listed %+v, want only the good entry %s", es, good)
	}
	want := map[string]string{
		truncated:            "unexpected end",
		filepath.Base(other): "names run",
		noReport:             "no report",
		"not-an-entry":       "no run.json",
	}
	if len(probs) != len(want) {
		t.Fatalf("problems = %+v, want one for each of %v", probs, want)
	}
	for _, p := range probs {
		if w, ok := want[p.RunID]; !ok || !strings.Contains(p.Err, w) {
			t.Errorf("problem %s = %q, want it to mention %q", p.RunID, p.Err, w)
		}
	}
}

func TestRetentionGC(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 4; n++ {
		mustSave(t, st, testEntry(n, "proclus"))
	}
	es, _, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("retained %d entries, want 2", len(es))
	}
	// The newest two survive.
	if es[0].Report.Seed != 3 || es[1].Report.Seed != 4 {
		t.Errorf("retained seeds %d,%d, want 3,4", es[0].Report.Seed, es[1].Report.Seed)
	}
}

// TestOtherSchemasAreProblems pins how entries of other schemas list.
// A schema-1 directory (manifest.json beside report.json) is one
// Problem naming the old layout, and retention leaves it in place. A
// run.json from a newer schema is skipped and reported.
func TestOtherSchemasAreProblems(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	legacy := "20260808T120000.000000000Z-proclus"
	if err := os.Mkdir(filepath.Join(dir, legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]string{
		"manifest.json": `{"schema":1,"run_id":"` + legacy + `","algorithm":"proclus","counters":{}}`,
		"report.json":   `{"algorithm":"proclus","objective":1}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, legacy, name), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	future := mustSave(t, st, testEntry(1, "proclus"))
	path := filepath.Join(dir, future, "run.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = []byte(strings.Replace(string(data), `"schema": 2`, `"schema": 3`, 1))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Two more saves under Retain: 1 collect only readable entries.
	mustSave(t, st, testEntry(2, "proclus"))
	newest := mustSave(t, st, testEntry(3, "proclus"))

	es, probs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || es[0].RunID != newest {
		t.Errorf("listing = %+v, want only %s", es, newest)
	}
	if len(probs) != 2 {
		t.Fatalf("problems = %+v, want the schema-1 and the newer-schema entry", probs)
	}
	if probs[0].RunID != legacy || !strings.Contains(probs[0].Err, "before schema 2") ||
		!strings.Contains(probs[0].Err, "re-record") {
		t.Errorf("schema-1 problem = %+v", probs[0])
	}
	if probs[1].RunID != future || !strings.Contains(probs[1].Err, "newer") {
		t.Errorf("newer-schema problem = %+v", probs[1])
	}
	if des, err := os.ReadDir(dir); err != nil || len(des) != 3 {
		t.Errorf("archive holds %v (err %v), want the two problem entries and the newest", des, err)
	}
}

// TestSaveRequiresReport checks that an entry without a report is
// refused before anything is written.
func TestSaveRequiresReport(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if id, err := st.Save(Entry{CreatedAt: stamp(1)}); err == nil {
		t.Errorf("saved an entry without a report as %s", id)
	}
	if des, err := os.ReadDir(dir); err != nil || len(des) != 0 {
		t.Errorf("failed save left %v (err %v)", des, err)
	}
}

// TestSaveOverlongNameFails checks that a run ID the file system cannot
// stat (a 300-character algorithm name makes the entry name too long)
// fails Save with an error instead of probing suffixes forever while
// holding the store's lock, and that the store still saves afterwards.
func TestSaveOverlongNameFails(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := st.Save(testEntry(1, strings.Repeat("a", 300)))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("saved an entry whose name is too long for the file system")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Save of an over-long name did not return")
	}
	id := mustSave(t, st, testEntry(2, "proclus"))
	if entries, problems, err := st.List(); err != nil || len(problems) != 0 || len(entries) != 1 || entries[0].RunID != id {
		t.Fatalf("after the failed save: List = %v, %v, %v; want the one entry %s", entries, problems, err, id)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Error("empty directory accepted")
	}
}
