package clique

// Tests for the CLIQUE observability surface: attaching an observer
// must not change the computation, counters must be exact and
// worker-independent, and Report must expose the run's structure.

import (
	"io"
	"reflect"
	"sync"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/randx"
)

// obsDataset builds a small dataset with one 2-dimensional dense region
// plus noise, enough to exercise histogram, search and report phases.
func obsDataset() *dataset.Dataset {
	r := randx.New(9)
	ds := dataset.New(4)
	blob(r, ds, 400, map[int]float64{0: 25, 1: 75}, 3)
	blob(r, ds, 600, nil, 0)
	return ds
}

func obsConfig() Config {
	return Config{Xi: 10, Tau: 0.05}
}

type cliqueCollector struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *cliqueCollector) Observe(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// zeroCliqueTimings clears wall-clock fields so Results can be compared
// bit-for-bit.
func zeroCliqueTimings(res *Result) {
	res.Stats.HistogramDuration = 0
	res.Stats.SearchDuration = 0
	res.Stats.ReportDuration = 0
	for i := range res.Stats.LevelDurations {
		res.Stats.LevelDurations[i] = 0
	}
}

func TestCliqueObserverDoesNotChangeResult(t *testing.T) {
	ds := obsDataset()

	plain, err := Run(ds, obsConfig())
	if err != nil {
		t.Fatal(err)
	}

	collector := &cliqueCollector{}
	cfg := obsConfig()
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
	starts, ends := 0, 0
	for _, e := range collector.events {
		switch e.Type {
		case obs.EvLevelStart:
			starts++
		case obs.EvLevelEnd:
			ends++
		}
	}
	if starts == 0 || starts != ends {
		t.Errorf("unbalanced level events: %d starts, %d ends", starts, ends)
	}

	zeroCliqueTimings(plain)
	zeroCliqueTimings(observed)
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("attaching an observer changed the result:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}

func TestCliqueCountersIndependentOfWorkers(t *testing.T) {
	ds := obsDataset()
	counts := func(workers int) obs.Snapshot {
		cfg := obsConfig()
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

// TestReportTrimsProbedEmptyLevel pins the report invariant
// len(dense_by_subspace_dim) == levels when the search probed one level
// past the top and found every candidate sparse (Result records the
// trailing zero; Levels does not count it).
func TestReportTrimsProbedEmptyLevel(t *testing.T) {
	res := &Result{
		DenseBySubspaceDim: []int{0, 113, 698, 771, 208, 0},
		Levels:             4,
	}
	rep := res.Report()
	if len(rep.DenseBySubspaceDim) != res.Levels {
		t.Fatalf("dense_by_subspace_dim = %v for %d levels",
			rep.DenseBySubspaceDim, res.Levels)
	}
	if got := rep.DenseBySubspaceDim[res.Levels-1]; got != 208 {
		t.Errorf("top level dense count = %d, want 208", got)
	}
}

func TestCliqueReportPopulated(t *testing.T) {
	ds := obsDataset()
	res, err := Run(ds, obsConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Algorithm != "clique" {
		t.Errorf("algorithm = %q", rep.Algorithm)
	}
	if rep.Dataset.Points != ds.Len() || rep.Dataset.Dims != ds.Dims() {
		t.Errorf("dataset info = %+v", rep.Dataset)
	}
	cfg, ok := rep.Config.(ConfigReport)
	if !ok {
		t.Fatalf("config echo has type %T", rep.Config)
	}
	if cfg.Xi != 10 || cfg.Tau != 0.05 || cfg.MaxUnitsPerLevel <= 0 {
		t.Errorf("config echo missing defaults: %+v", cfg)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("phases: %+v", rep.Phases)
	}
	if rep.Counters.PointsScanned <= 0 || rep.Counters.DenseUnitProbes <= 0 {
		t.Errorf("hot-path counters not collected: %+v", rep.Counters)
	}
	if rep.Counters.DistanceEvals != 0 {
		t.Errorf("CLIQUE evaluates no distances, counted %d", rep.Counters.DistanceEvals)
	}
	if rep.Levels != res.Levels || rep.Levels < 2 {
		t.Errorf("levels = %d (result %d)", rep.Levels, res.Levels)
	}
	if len(rep.DenseBySubspaceDim) != res.Levels {
		t.Errorf("dense_by_subspace_dim has %d entries for %d levels",
			len(rep.DenseBySubspaceDim), res.Levels)
	}
	if len(rep.Clusters) != len(res.Clusters) {
		t.Fatalf("clusters: %d vs %d", len(rep.Clusters), len(res.Clusters))
	}
	for _, cl := range rep.Clusters {
		if cl.Medoid != -1 {
			t.Errorf("cluster %d has medoid %d; CLIQUE reports should use -1", cl.ID, cl.Medoid)
		}
		if cl.Size <= 0 || len(cl.Dimensions) == 0 {
			t.Errorf("cluster %d not populated: %+v", cl.ID, cl)
		}
	}
}
