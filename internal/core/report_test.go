package core

// Tests for the machine-readable run report: golden-file stability,
// determinism under a fixed seed, and the metamorphic guarantee that
// attaching an observer does not change the computation.

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func reportData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 2000, Dims: 10, K: 3, FixedDims: 4, MinSizeFraction: 0.15, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func reportConfigFixture() Config {
	// Workers: 1 pins the goroutine layout; the result would be identical
	// for any worker count, but single-threaded runs keep the golden file
	// honest on any CI machine.
	return Config{K: 3, L: 4, Seed: 5, Workers: 1, Restarts: 2}
}

// zeroReportTimings clears every wall-clock field so golden comparisons
// only see deterministic content.
func zeroReportTimings(rep *obs.RunReport) {
	for i := range rep.Phases {
		rep.Phases[i].Seconds = 0
	}
	for i := range rep.Restarts {
		rep.Restarts[i].Seconds = 0
	}
	rep.TotalSeconds = 0
}

func TestReportGolden(t *testing.T) {
	ds := reportData(t)
	res, err := Run(ds, reportConfigFixture())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	zeroReportTimings(rep)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from golden file (run with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestReportGoldenConcurrentRestarts proves the serial/concurrent
// equivalence at the report level: a run whose restarts execute
// concurrently must reproduce the golden file byte-for-byte — same
// effective seed, same per-restart iteration counts and objectives,
// same trace — once wall-clock fields are zeroed and the Workers echo
// (the one config field that legitimately differs) is pinned back to
// the golden fixture's value.
func TestReportGoldenConcurrentRestarts(t *testing.T) {
	ds := reportData(t)
	cfg := reportConfigFixture()
	cfg.Workers = 4 // two concurrent restarts, two workers inside each
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	zeroReportTimings(rep)
	echo, ok := rep.Config.(ConfigReport)
	if !ok {
		t.Fatalf("config echo has type %T", rep.Config)
	}
	if echo.Workers != 4 {
		t.Fatalf("config echo Workers = %d, want 4", echo.Workers)
	}
	echo.Workers = reportConfigFixture().Workers
	rep.Config = echo
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report_golden.json"))
	if err != nil {
		t.Fatalf("%v (run TestReportGolden with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("concurrent-restart report differs from the serial golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestReportDeterministicAcrossRuns(t *testing.T) {
	ds := reportData(t)
	serialize := func() []byte {
		res, err := Run(ds, reportConfigFixture())
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report()
		zeroReportTimings(rep)
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := serialize(), serialize(); !bytes.Equal(a, b) {
		t.Errorf("two runs with identical seed produced different reports:\n%s\n---\n%s", a, b)
	}
}

func TestReportPopulated(t *testing.T) {
	ds := reportData(t)
	res, err := Run(ds, reportConfigFixture())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Algorithm != "proclus" {
		t.Errorf("algorithm = %q", rep.Algorithm)
	}
	if rep.Seed != 5 || res.Seed != 5 {
		t.Errorf("seed not recorded: report %d, result %d", rep.Seed, res.Seed)
	}
	if rep.Dataset.Points != 2000 || rep.Dataset.Dims != 10 {
		t.Errorf("dataset info = %+v", rep.Dataset)
	}
	cfg, ok := rep.Config.(ConfigReport)
	if !ok {
		t.Fatalf("config echo has type %T", rep.Config)
	}
	if cfg.K != 3 || cfg.L != 4 || cfg.SampleFactor != 30 {
		t.Errorf("config echo missing defaults: %+v", cfg)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("phases: %+v", rep.Phases)
	}
	for _, ph := range rep.Phases {
		if ph.Seconds <= 0 {
			t.Errorf("phase %s has non-positive duration", ph.Name)
		}
	}
	if len(rep.Restarts) != 2 {
		t.Fatalf("restarts: %+v", rep.Restarts)
	}
	total := 0
	for _, rs := range rep.Restarts {
		if rs.Iterations <= 0 || rs.Seconds <= 0 {
			t.Errorf("restart record not populated: %+v", rs)
		}
		total += rs.Iterations
	}
	if total != res.Iterations {
		t.Errorf("restart iterations sum %d != total %d", total, res.Iterations)
	}
	if rep.Counters.DistanceEvals <= 0 || rep.Counters.PointsScanned <= 0 {
		t.Errorf("hot-path counters not collected: %+v", rep.Counters)
	}
	if len(rep.ObjectiveTrace) != res.Iterations {
		t.Errorf("trace length %d != iterations %d", len(rep.ObjectiveTrace), res.Iterations)
	}
	if len(rep.Clusters) != 3 {
		t.Errorf("clusters: %d", len(rep.Clusters))
	}
}

// eventCollector records events; used to prove observation is passive.
type eventCollector struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *eventCollector) Observe(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// zeroStatsTimings clears the wall-clock fields of a Result so two runs
// can be compared bit-for-bit; everything else must match exactly.
func zeroStatsTimings(res *Result) {
	res.Stats.InitDuration = 0
	res.Stats.IterateDuration = 0
	res.Stats.RefineDuration = 0
	for i := range res.Stats.Restarts {
		res.Stats.Restarts[i].Duration = 0
	}
}

func TestObserverDoesNotChangeResult(t *testing.T) {
	ds := reportData(t)

	plain, err := Run(ds, reportConfigFixture())
	if err != nil {
		t.Fatal(err)
	}

	collector := &eventCollector{}
	cfg := reportConfigFixture()
	cfg.Observer = obs.Multi(obs.NewJSONTracer(io.Discard), collector)
	observed, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(collector.events) == 0 {
		t.Fatal("observer saw no events")
	}
	first, last := collector.events[0], collector.events[len(collector.events)-1]
	if first.Type != obs.EvRunStart || last.Type != obs.EvRunEnd {
		t.Errorf("event stream not bracketed by run start/end: %v … %v", first.Type, last.Type)
	}

	zeroStatsTimings(plain)
	zeroStatsTimings(observed)
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("attaching an observer changed the result:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
	if plain.Stats.Counters != observed.Stats.Counters {
		t.Errorf("counters differ with observer attached: %+v vs %+v",
			plain.Stats.Counters, observed.Stats.Counters)
	}
}

func TestCountersIndependentOfWorkers(t *testing.T) {
	ds := reportData(t)
	counts := func(workers int) obs.Snapshot {
		cfg := reportConfigFixture()
		cfg.Workers = workers
		res, err := Run(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Counters
	}
	if a, b := counts(1), counts(4); a != b {
		t.Errorf("counters depend on worker count: %+v vs %+v", a, b)
	}
}
