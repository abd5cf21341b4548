package registry

import (
	"context"
	"strings"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/obs/metrics"
	"proclus/internal/obs/series"
	"proclus/internal/synth"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 1200, Dims: 8, K: 3, FixedDims: 3, MinSizeFraction: 0.2,
		OutlierFraction: -1, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	want := []string{"clique", "kmedoids", "orclus", "proclus"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestGetUnknownNamesKnown(t *testing.T) {
	_, err := Get("birch")
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}

func TestSourceValidation(t *testing.T) {
	ds := testData(t)
	ctx := context.Background()
	if _, err := Fit(ctx, "proclus", Source{}, Config{K: 3, L: 3}); err == nil {
		t.Fatal("empty source accepted")
	}
	src := Source{Dataset: ds, Stream: dataset.NewMemorySource(ds, 256)}
	if _, err := Fit(ctx, "proclus", src, Config{K: 3, L: 3}); err == nil {
		t.Fatal("double source accepted")
	}
}

// TestCapRejections drives every capability gate: each row configures
// exactly one unsupported knob and must fail with an error naming the
// algorithm.
func TestCapRejections(t *testing.T) {
	ds := testData(t)
	stream := dataset.NewMemorySource(ds, 256)
	mem := Source{Dataset: ds}
	cases := []struct {
		name string
		algo string
		src  Source
		cfg  Config
	}{
		{"stream-orclus", "orclus", Source{Stream: stream}, Config{K: 3, L: 2}},
		{"stream-kmedoids", "kmedoids", Source{Stream: stream}, Config{K: 3}},
		{"k-clique", "clique", mem, Config{K: 3}},
		{"l-clique", "clique", mem, Config{L: 3}},
		{"l-kmedoids", "kmedoids", mem, Config{K: 3, L: 3}},
		{"metrics-orclus", "orclus", mem, Config{K: 3, L: 2, Metrics: metrics.NewRegistry()}},
		{"series-orclus", "orclus", mem, Config{K: 3, L: 2, Series: series.NewStore(0)}},
		{"series-kmedoids", "kmedoids", mem, Config{K: 3, Series: series.NewStore(0)}},
		{"workers-kmedoids", "kmedoids", mem, Config{K: 3, Workers: 4}},
		{"cliqueparams-proclus", "proclus", mem, Config{K: 3, L: 3, Clique: CliqueParams{Xi: 8}}},
		{"orclusparams-proclus", "proclus", mem, Config{K: 3, L: 3, Orclus: OrclusParams{Alpha: 0.7}}},
		{"medoidparams-proclus", "proclus", mem, Config{K: 3, L: 3, Medoid: MedoidParams{Restarts: 3}}},
		{"orclusparams-clique", "clique", mem, Config{Orclus: OrclusParams{K0Factor: 3}}},
		{"medoidparams-orclus", "orclus", mem, Config{K: 3, L: 2, Medoid: MedoidParams{MaxNeighbors: 9}}},
		{"cliqueparams-kmedoids", "kmedoids", mem, Config{K: 3, Clique: CliqueParams{Tau: 0.1}}},
	}
	for _, tc := range cases {
		_, err := Fit(context.Background(), tc.algo, tc.src, tc.cfg)
		if err == nil {
			t.Errorf("%s: unsupported combination accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.algo) {
			t.Errorf("%s: error %q does not name the algorithm", tc.name, err)
		}
	}
}

// TestModelSurfaces fits each algorithm once and exercises the whole
// Model interface.
func TestModelSurfaces(t *testing.T) {
	ds := testData(t)
	ctx := context.Background()
	cases := []struct {
		algo string
		cfg  Config
	}{
		{"proclus", Config{K: 3, L: 3, Seed: 7}},
		{"clique", Config{Clique: CliqueParams{Tau: 0.02, MDLPruning: true, ReportHighest: true}, Seed: 7}},
		{"orclus", Config{K: 3, L: 3, Seed: 7}},
		{"kmedoids", Config{K: 3, Seed: 7}},
	}
	for _, tc := range cases {
		m, err := Fit(ctx, tc.algo, Source{Dataset: ds}, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		if m.Algorithm() != tc.algo {
			t.Errorf("%s: Algorithm() = %q", tc.algo, m.Algorithm())
		}
		if m.NumClusters() == 0 {
			t.Errorf("%s: no clusters", tc.algo)
		}
		as := m.Assignments()
		if len(as) != ds.Len() {
			t.Errorf("%s: %d assignments for %d points", tc.algo, len(as), ds.Len())
		}
		for p, a := range as {
			if a < -1 || a >= m.NumClusters() {
				t.Fatalf("%s: point %d assigned out of range: %d", tc.algo, p, a)
			}
		}
		// Assign must agree with the fitted assignment for a large
		// majority of training points (outlier logic and overlap
		// flattening may move a few).
		agree, considered := 0, 0
		for p := 0; p < ds.Len(); p++ {
			if as[p] < 0 {
				continue
			}
			considered++
			if m.Assign(ds.Point(p)) == as[p] {
				agree++
			}
		}
		if considered == 0 {
			t.Fatalf("%s: no clustered points to check Assign against", tc.algo)
		}
		if frac := float64(agree) / float64(considered); frac < 0.95 {
			t.Errorf("%s: Assign agrees with fit on only %.2f of clustered points", tc.algo, frac)
		}
		if got := m.Assign(make([]float64, ds.Dims()+1)); got != -1 {
			t.Errorf("%s: wrong-dimensionality point assigned to %d", tc.algo, got)
		}
		rep := m.Report()
		if rep.Algorithm != tc.algo {
			t.Errorf("%s: report algorithm %q", tc.algo, rep.Algorithm)
		}
		if rep.Dataset.Points != ds.Len() || rep.Dataset.Dims != ds.Dims() {
			t.Errorf("%s: report dataset %+v", tc.algo, rep.Dataset)
		}
		if len(rep.Clusters) != m.NumClusters() {
			t.Errorf("%s: report has %d clusters, model %d", tc.algo, len(rep.Clusters), m.NumClusters())
		}
		if m.Unwrap() == nil {
			t.Errorf("%s: Unwrap returned nil", tc.algo)
		}
	}
}

// TestStreamedCliqueHasNoAssignments pins the documented streamed-fit
// behavior: no resident dataset, so Assignments is nil, while Assign
// still works from the recorded grid bounds.
func TestStreamedCliqueHasNoAssignments(t *testing.T) {
	ds := testData(t)
	m, err := Fit(context.Background(), "clique",
		Source{Stream: dataset.NewMemorySource(ds, 300)},
		Config{Clique: CliqueParams{Tau: 0.02, MDLPruning: true, ReportHighest: true}})
	if err != nil {
		t.Fatal(err)
	}
	if as := m.Assignments(); as != nil {
		t.Fatalf("streamed fit returned %d assignments", len(as))
	}
	saw := false
	for p := 0; p < ds.Len(); p++ {
		if m.Assign(ds.Point(p)) >= 0 {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatal("Assign covered no point after a streamed fit")
	}
}

func TestFitErrorsPropagate(t *testing.T) {
	ds := testData(t)
	// K larger than the dataset must surface the algorithm's own error.
	if _, err := Fit(context.Background(), "proclus", Source{Dataset: ds},
		Config{K: ds.Len() + 1, L: 3}); err == nil {
		t.Fatal("invalid algorithm config accepted")
	}
	if _, err := Fit(context.Background(), "orclus", Source{Dataset: ds},
		Config{K: 3, L: ds.Dims() + 5}); err == nil {
		t.Fatal("invalid orclus config accepted")
	}
}
