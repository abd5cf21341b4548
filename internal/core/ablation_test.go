package core

// Tests for the reference's ablations and the Stats observability
// record, and the ablation benchmarks of EXPERIMENTS.md.

import (
	"context"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/eval"
	"proclus/internal/randx"
	"proclus/internal/synth"
)

func contextWithCancel() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

func ablationData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 3000, Dims: 12, K: 3, FixedDims: 4, MinSizeFraction: 0.15, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestInitRandomRuns(t *testing.T) {
	ds := ablationData(t)
	res, err := referenceRun(ds, Config{K: 3, L: 4, Seed: 1}, ablation{randomInit: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters: %d", len(res.Clusters))
	}
}

func TestInitRandomCandidatesAreUniform(t *testing.T) {
	// White-box: with random initialization, candidate counts per label
	// should be roughly proportional to cluster sizes rather than
	// spread-biased.
	ds := ablationData(t)
	r := newRunner(ds, Config{K: 3, L: 4, Seed: 5})
	cands, err := r.referenceCandidates(ablation{randomInit: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := r.cfg.MedoidFactor * 3; len(cands) != want {
		t.Fatalf("got %d candidates, want %d", len(cands), want)
	}
	seen := map[int]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatal("duplicate candidate")
		}
		seen[c] = true
	}
}

func TestMetricManhattanRuns(t *testing.T) {
	ds := ablationData(t)
	res, err := referenceRun(ds, Config{K: 3, L: 4, Seed: 1}, ablation{manhattan: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != ds.Len() {
		t.Fatal("missing assignments")
	}
}

func TestMetricsDisagreeOnUnevenDims(t *testing.T) {
	// A point equidistant per-dimension from two medoids with different
	// dimension-set sizes is assigned differently under the two metrics:
	// segmental normalizes, plain Manhattan favours the smaller set.
	ds, _ := dataset.FromRows([][]float64{
		{0, 0, 0, 0}, // medoid 0, dims {0,1}
		{9, 9, 9, 9}, // medoid 1, dims {0,1,2,3}
		{6, 6, 6, 6}, // contested point
	}, nil)
	r := newRunner(ds, Config{K: 2, L: 3})
	dims := [][]int{{0, 1}, {0, 1, 2, 3}}

	// Segmental: d0 = (6+6)/2 = 6, d1 = (3+3+3+3)/4 = 3 → medoid 1.
	segAssign, _ := r.assignPoints([]int{0, 1}, dims)
	if segAssign[2] != 1 {
		t.Fatalf("segmental assigned to %d, want 1", segAssign[2])
	}

	// Manhattan: d0 = 12, d1 = 12 → tie → medoid 0 (lower index).
	manAssign := r.referenceAssign(r.points([]int{0, 1}), dims, nil, true)
	if manAssign[2] != 0 {
		t.Fatalf("manhattan assigned to %d, want 0", manAssign[2])
	}
}

func TestSkipRefinementNoOutliers(t *testing.T) {
	ds := ablationData(t)
	res, err := referenceRun(ds, Config{K: 3, L: 4, Seed: 1}, ablation{skipRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumOutliers() != 0 {
		t.Fatalf("%d outliers despite skipped refinement", res.NumOutliers())
	}
	total := 0
	for _, cl := range res.Clusters {
		total += len(cl.Members)
	}
	if total != ds.Len() {
		t.Fatalf("points lost: %d of %d", total, ds.Len())
	}
}

func TestRunContextCancellation(t *testing.T) {
	ds := ablationData(t)
	ctx, cancel := contextWithCancel()
	cancel() // cancelled before the first trial completes a restart
	_, err := RunContext(ctx, ds, Config{K: 3, L: 4, Seed: 1})
	if err == nil {
		t.Fatal("cancelled context did not abort the run")
	}
}

func TestRunContextCompletesWhenNotCancelled(t *testing.T) {
	ds := ablationData(t)
	ctx, cancel := contextWithCancel()
	defer cancel()
	res, err := RunContext(ctx, ds, Config{K: 3, L: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters: %d", len(res.Clusters))
	}
}

func TestStatsPopulated(t *testing.T) {
	ds := ablationData(t)
	res, err := Run(ds, Config{K: 3, L: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.InitDuration <= 0 || s.IterateDuration <= 0 || s.RefineDuration <= 0 {
		t.Fatalf("phase durations not recorded: %+v", s)
	}
	if len(s.ObjectiveTrace) != res.Iterations {
		t.Fatalf("trace has %d entries for %d iterations", len(s.ObjectiveTrace), res.Iterations)
	}
	for _, o := range s.ObjectiveTrace {
		if o < 0 {
			t.Fatalf("negative objective in trace: %v", o)
		}
	}
}

func TestGreedyInitBeatsRandomOnSmallClusters(t *testing.T) {
	// The paper's rationale for farthest-first initialization: it
	// represents small, well-separated clusters that uniform sampling
	// misses. Build one dominant cluster plus two small far-away ones
	// and compare candidate coverage across several seeds.
	r := randx.New(17)
	ds := dataset.New(4)
	for i := 0; i < 900; i++ {
		ds.AppendLabeled([]float64{r.Normal(50, 3), r.Normal(50, 3), r.Normal(50, 3), r.Normal(50, 3)}, 0)
	}
	for i := 0; i < 50; i++ {
		ds.AppendLabeled([]float64{r.Normal(5, 1), r.Normal(5, 1), r.Normal(5, 1), r.Normal(5, 1)}, 1)
		ds.AppendLabeled([]float64{r.Normal(95, 1), r.Normal(95, 1), r.Normal(95, 1), r.Normal(95, 1)}, 2)
	}
	coverage := func(ab ablation) int {
		covered := 0
		for seed := uint64(0); seed < 10; seed++ {
			rr := newRunner(ds, Config{K: 3, L: 2, Seed: seed, MedoidFactor: 3})
			cands, err := rr.referenceCandidates(ab)
			if err != nil {
				t.Fatal(err)
			}
			labels := map[int]bool{}
			for _, c := range cands {
				labels[ds.Label(c)] = true
			}
			if len(labels) == 3 {
				covered++
			}
		}
		return covered
	}
	greedyCov := coverage(ablation{})
	randomCov := coverage(ablation{randomInit: true})
	if greedyCov < randomCov {
		t.Fatalf("greedy init covered all clusters in %d/10 seeds, random in %d/10",
			greedyCov, randomCov)
	}
	if greedyCov < 8 {
		t.Fatalf("greedy init covered all clusters in only %d/10 seeds", greedyCov)
	}
}

// ablationWorkload is a Case-2-style input (varying cluster
// dimensionality), the setting where initialization and the assignment
// metric matter most.
func ablationWorkload(b *testing.B) (*dataset.Dataset, *synth.GroundTruth) {
	b.Helper()
	ds, gt, err := synth.Generate(synth.Config{
		N: 8000, Dims: 20, K: 5, DimCounts: []int{2, 2, 3, 6, 7},
		MinSizeFraction: 0.1, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds, gt
}

// benchAblation fits the ablation workload through the reference under
// ab, with algorithm seed i+1 at iteration i, and reports the mean
// number of input clusters whose dimension set was recovered exactly
// (exactdims/5) and the mean purity ×1000. Every arm runs on the naive
// engine, so the arms' times compare with each other, not with Run's.
func benchAblation(b *testing.B, ab ablation) {
	ds, gt := ablationWorkload(b)
	var exactSum int
	var puritySum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := referenceRun(ds, Config{K: 5, L: 4, Seed: uint64(i) + 1}, ab)
		if err != nil {
			b.Fatal(err)
		}
		cm, err := eval.NewConfusion(ds.Labels(), res.Assignments, len(res.Clusters), len(gt.Sizes))
		if err != nil {
			b.Fatal(err)
		}
		match := cm.Match()
		for c, cl := range res.Clusters {
			if match[c] >= 0 && eval.MatchDimensions(cl.Dimensions, gt.Dimensions[match[c]]).Exact {
				exactSum++
			}
		}
		puritySum += cm.Purity()
	}
	b.ReportMetric(float64(exactSum)/float64(b.N), "exactdims/5")
	b.ReportMetric(1000*puritySum/float64(b.N), "purity*1e3")
}

// BenchmarkAblationInit compares the paper's greedy farthest-first
// initialization against uniform random candidate selection.
func BenchmarkAblationInit(b *testing.B) {
	b.Run("greedy", func(b *testing.B) { benchAblation(b, ablation{}) })
	b.Run("random", func(b *testing.B) { benchAblation(b, ablation{randomInit: true}) })
}

// BenchmarkAblationMetric compares Manhattan segmental assignment (the
// paper's normalized metric) against unnormalized Manhattan. The
// workload has clusters with 2–7 dimensions, exactly the case §1.2
// argues normalization is for.
func BenchmarkAblationMetric(b *testing.B) {
	b.Run("segmental", func(b *testing.B) { benchAblation(b, ablation{}) })
	b.Run("manhattan", func(b *testing.B) { benchAblation(b, ablation{manhattan: true}) })
}

// BenchmarkAblationRefinement measures the quality effect of the §2.3
// refinement phase.
func BenchmarkAblationRefinement(b *testing.B) {
	b.Run("with", func(b *testing.B) { benchAblation(b, ablation{}) })
	b.Run("without", func(b *testing.B) { benchAblation(b, ablation{skipRefine: true}) })
}
