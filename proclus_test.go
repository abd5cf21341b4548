package proclus_test

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"proclus"
)

// The facade tests exercise the public API end to end: generate → run →
// evaluate, plus the CSV path, exactly as the README's quick start does.

func TestPublicAPIQuickstart(t *testing.T) {
	ds, gt, err := proclus.Generate(proclus.GeneratorConfig{
		N: 5000, Dims: 12, K: 3, FixedDims: 4, MinSizeFraction: 0.15, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := proclus.Run(ds, proclus.Config{K: 3, L: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters: %d", len(res.Clusters))
	}
	cm, err := proclus.NewConfusion(ds.Labels(), res.Assignments, 3, len(gt.Sizes))
	if err != nil {
		t.Fatal(err)
	}
	if cm.Purity() < 0.9 {
		t.Fatalf("purity %.3f on well-separated data", cm.Purity())
	}
	exact := 0
	match := cm.Match()
	for i, cl := range res.Clusters {
		if match[i] >= 0 && proclus.MatchDimensions(cl.Dimensions, gt.Dimensions[match[i]]).Exact {
			exact++
		}
	}
	if exact < 2 {
		t.Fatalf("only %d/3 exact dimension recoveries", exact)
	}
}

func TestPublicAPICliqueAndMetrics(t *testing.T) {
	ds, _, err := proclus.Generate(proclus.GeneratorConfig{
		N: 3000, Dims: 8, K: 2, FixedDims: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := proclus.RunCLIQUE(ds, proclus.CliqueConfig{Xi: 10, Tau: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("CLIQUE found nothing")
	}
	members := proclus.CliqueMembership(ds, res)
	ov, err := proclus.AverageOverlap(members)
	if err != nil {
		t.Fatal(err)
	}
	if ov < 1 {
		t.Fatalf("overlap %v < 1", ov)
	}
	cov := proclus.Coverage(ds.Labels(), members)
	if cov <= 0 || cov > 1 {
		t.Fatalf("coverage %v out of range", cov)
	}
}

func TestPublicAPIKMedoids(t *testing.T) {
	ds, err := proclus.FromRows([][]float64{
		{0, 0}, {1, 0}, {0, 1}, {50, 50}, {51, 50}, {50, 51},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proclus.RunKMedoids(ds, proclus.KMedoidsConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[0] == res.Assignments[3] {
		t.Fatal("far blobs merged")
	}
	if res.Assignments[0] != res.Assignments[1] || res.Assignments[3] != res.Assignments[4] {
		t.Fatal("near points separated")
	}
}

func TestPublicAPIORCLUS(t *testing.T) {
	ds, _, err := proclus.GenerateOriented(proclus.OrientedConfig{
		N: 2000, Dims: 8, K: 2, L: 2, OutlierFraction: -1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := proclus.RunORCLUS(ds, proclus.ORCLUSConfig{K: 2, L: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := proclus.AdjustedRandIndex(ds.Labels(), res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.9 {
		t.Fatalf("ORCLUS ARI %.3f on separable oriented clusters", ari)
	}
	nmi, err := proclus.NormalizedMutualInfo(ds.Labels(), res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.8 {
		t.Fatalf("NMI %.3f", nmi)
	}
}

func TestPublicAPICSVRoundTrip(t *testing.T) {
	ds, err := proclus.FromRows([][]float64{{1.5, 2}, {3, 4.25}}, []int{0, proclus.Outlier})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ds.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := proclus.ReadCSV(strings.NewReader(sb.String()), true)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Label(1) != proclus.Outlier {
		t.Fatal("round trip lost data")
	}
}

func TestPublicAPIStreaming(t *testing.T) {
	ds, _, err := proclus.Generate(proclus.GeneratorConfig{
		N: 2000, Dims: 10, K: 3, FixedDims: 3, MinSizeFraction: 0.15, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	src, err := proclus.OpenFileSource(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proclus.RunStream(context.Background(), src, proclus.Config{K: 3, L: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 || len(res.Assignments) != ds.Len() {
		t.Fatalf("streamed run shape: %d clusters, %d assignments", len(res.Clusters), len(res.Assignments))
	}
	// A MemorySource over the same data must reproduce the file run
	// bit-for-bit (the streaming determinism contract).
	res2, err := proclus.RunStream(context.Background(), proclus.NewMemorySource(ds, 999), proclus.Config{K: 3, L: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Assignments, res2.Assignments) {
		t.Fatal("file and memory sources disagree")
	}
	cres, err := proclus.RunCLIQUEStream(context.Background(), src, proclus.CliqueConfig{Xi: 8, Tau: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	mres, err := proclus.RunCLIQUE(ds, proclus.CliqueConfig{Xi: 8, Tau: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Clusters) != len(mres.Clusters) {
		t.Fatalf("streamed CLIQUE found %d clusters, in-memory %d", len(cres.Clusters), len(mres.Clusters))
	}
}

func TestPublicAPITelemetry(t *testing.T) {
	ds, _, err := proclus.Generate(proclus.GeneratorConfig{
		N: 2000, Dims: 10, K: 3, FixedDims: 3, MinSizeFraction: 0.15, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}

	store := proclus.NewSeriesStore(0)
	spans := proclus.NewSpanBuilder()
	dog := proclus.NewWatchdog(proclus.WatchdogOptions{NoImprove: 500, Next: spans})
	defer dog.Stop()
	res, err := proclus.Run(ds, proclus.Config{
		K: 3, L: 3, Seed: 7, Series: store, Observer: dog,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dog.Stalled(); ok {
		t.Fatal("watchdog tripped on a healthy run")
	}
	snap := store.Snapshot()
	obj := snap.Find(proclus.SeriesIterObjective, proclus.SeriesLabel("restart", "1"))
	if obj == nil || len(obj.Points) == 0 {
		t.Fatal("no objective trajectory recorded")
	}
	if res.Stats.Series.Find(proclus.SeriesIterBest, proclus.SeriesLabel("restart", "1")) == nil {
		t.Fatal("result carries no series snapshot")
	}
	root := spans.Root()
	if root == nil || root.Name != "run:proclus" {
		t.Fatalf("span root = %+v", root)
	}
	path := spans.CriticalPath()
	if len(path) < 2 {
		t.Fatalf("critical path too shallow: %d spans", len(path))
	}

	// A hair-trigger watchdog wired to the run context aborts cleanly.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trip := proclus.NewWatchdog(proclus.WatchdogOptions{NoImprove: 1, Cancel: cancel})
	defer trip.Stop()
	if _, err := proclus.RunContext(ctx, ds, proclus.Config{
		K: 3, L: 3, Seed: 7, Observer: trip,
	}); err == nil {
		t.Fatal("stalled run finished without error")
	}
	if _, ok := trip.Stalled(); !ok {
		t.Fatal("watchdog cancelled without recording the stall")
	}
}

// TestPublicAPIRunArchive exercises the archive facade the way a
// downstream service would: run twice, archive both reports, and read
// them back.
func TestPublicAPIRunArchive(t *testing.T) {
	ds, _, err := proclus.Generate(proclus.GeneratorConfig{
		N: 2000, Dims: 10, K: 3, FixedDims: 3, MinSizeFraction: 0.15, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := proclus.OpenRunArchive(filepath.Join(t.TempDir(), "runs"), proclus.RunArchiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var firstCounters proclus.CounterSnapshot
	for i := 0; i < 2; i++ {
		res, err := proclus.Run(ds, proclus.Config{K: 3, L: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstCounters = res.Stats.Counters
		} else if res.Stats.Counters != firstCounters {
			t.Fatal("identical-seed runs diverged")
		}
		if _, err := store.Save(proclus.ArchiveEntry{Report: res.Report()}); err != nil {
			t.Fatal(err)
		}
	}
	entries, problems, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("problems loading a freshly written archive: %v", problems)
	}
	if len(entries) != 2 {
		t.Fatalf("archived runs: %d, want 2", len(entries))
	}
	for _, e := range entries {
		if e.Schema != 2 || e.RunID == "" || e.CreatedAt.IsZero() {
			t.Fatalf("entry provenance: %+v", e)
		}
		if e.Report.Algorithm != "proclus" || e.Report.Seed != 7 {
			t.Fatalf("report round-trip: %+v", e.Report)
		}
		if e.Report.Counters != firstCounters {
			t.Fatal("archived report lost the run's counters")
		}
	}
}

// TestRegistryFacade exercises the registry re-exports: the algorithm
// list, name lookup, capability rejection, and bit-identity between a
// registry-routed fit and the direct entry point.
func TestRegistryFacade(t *testing.T) {
	names := proclus.Algorithms()
	want := []string{"clique", "kmedoids", "orclus", "proclus"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Algorithms() = %v, want %v", names, want)
	}
	if _, err := proclus.LookupAlgorithm("dbscan"); err == nil ||
		!strings.Contains(err.Error(), "proclus") {
		t.Errorf("unknown-name error %v should list the registered names", err)
	}
	a, err := proclus.LookupAlgorithm("clique")
	if err != nil {
		t.Fatal(err)
	}
	if caps := a.Caps(); caps.TakesK || !caps.Stream {
		t.Errorf("clique caps = %+v, want no K, streaming", caps)
	}

	ds, _, err := proclus.Generate(proclus.GeneratorConfig{
		N: 2000, Dims: 10, K: 3, FixedDims: 3, MinSizeFraction: 0.15, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := proclus.FitConfig{K: 3, L: 3, Seed: 4}
	m, err := proclus.Fit(context.Background(), "proclus",
		proclus.FitSource{Dataset: ds}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := proclus.Run(ds, proclus.Config{K: 3, L: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	routed := m.Unwrap().(*proclus.Result)
	if !reflect.DeepEqual(routed.Assignments, direct.Assignments) ||
		routed.Objective != direct.Objective {
		t.Error("registry-routed fit differs from the direct entry point")
	}
	if m.NumClusters() != len(direct.Clusters) {
		t.Errorf("NumClusters %d, want %d", m.NumClusters(), len(direct.Clusters))
	}

	// A knob the algorithm does not take is rejected, naming it.
	bad := cfg
	bad.Medoid = proclus.MedoidParams{Restarts: 3}
	if _, err := proclus.Fit(context.Background(), "proclus",
		proclus.FitSource{Dataset: ds}, bad); err == nil ||
		!strings.Contains(err.Error(), "proclus") {
		t.Errorf("unsupported params error = %v, want it to name the algorithm", err)
	}
}
