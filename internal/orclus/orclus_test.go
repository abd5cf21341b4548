package orclus

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/eval"
	"proclus/internal/linalg"
	"proclus/internal/obs"
	"proclus/internal/randx"
	"proclus/internal/synth"
)

func TestRunValidates(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0, 0}, {1, 1}, {2, 2}}, nil)
	cases := []Config{
		{K: 0, L: 1},
		{K: 1, L: 0},
		{K: 1, L: 3},
		{K: 1, L: 1, Alpha: 1.5},
		{K: 1, L: 1, K0Factor: -1},
		{K: 9, L: 1},
	}
	for i, cfg := range cases {
		if _, err := Run(ds, cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	bad := dataset.New(1)
	bad.Append([]float64{math.NaN()})
	if _, err := Run(bad, Config{K: 1, L: 1}); err == nil {
		t.Error("NaN dataset accepted")
	}
}

func orientedData(t *testing.T, seed uint64) (*dataset.Dataset, *synth.OrientedTruth) {
	t.Helper()
	ds, gt, err := synth.GenerateOriented(synth.OrientedConfig{
		N: 3000, Dims: 10, K: 3, L: 2, OutlierFraction: -1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, gt
}

func TestRecoverOrientedClusters(t *testing.T) {
	ds, _ := orientedData(t, 11)
	res, err := Run(ds, Config{K: 3, L: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters: %d", len(res.Clusters))
	}
	ari, err := eval.AdjustedRandIndex(ds.Labels(), res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.9 {
		t.Fatalf("ARI = %.3f on cleanly separated oriented clusters", ari)
	}
}

func TestRecoveredBasisSpansTightDirections(t *testing.T) {
	// For each recovered cluster matched to its generating cluster, the
	// recovered basis must span (approximately) the generated tight
	// directions: projecting a generated tight vector onto the recovered
	// basis should preserve most of its norm.
	ds, gt := orientedData(t, 13)
	res, err := Run(ds, Config{K: 3, L: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := eval.NewConfusion(ds.Labels(), res.Assignments, len(res.Clusters), len(gt.Sizes))
	if err != nil {
		t.Fatal(err)
	}
	match := cm.Match()
	checked := 0
	for ci, cl := range res.Clusters {
		gi := match[ci]
		if gi < 0 || len(cl.Members) < 100 {
			continue
		}
		for _, tight := range gt.TightBases[gi] {
			var captured float64
			for _, b := range cl.Basis {
				d := linalg.Dot(tight, b)
				captured += d * d
			}
			if captured < 0.8 {
				t.Fatalf("cluster %d: recovered basis captures only %.2f of a tight direction",
					ci, captured)
			}
		}
		checked++
	}
	if checked < 2 {
		t.Fatalf("only %d clusters could be checked", checked)
	}
}

func TestResultInvariants(t *testing.T) {
	ds, _ := orientedData(t, 17)
	res, err := Run(ds, Config{K: 3, L: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != ds.Len() {
		t.Fatal("assignment length mismatch")
	}
	seen := make([]bool, ds.Len())
	total := 0
	for ci, cl := range res.Clusters {
		if len(cl.Basis) != 2 {
			t.Fatalf("cluster %d basis has %d vectors", ci, len(cl.Basis))
		}
		// Basis orthonormality.
		for a := 0; a < len(cl.Basis); a++ {
			for b := a; b < len(cl.Basis); b++ {
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(linalg.Dot(cl.Basis[a], cl.Basis[b])-want) > 1e-6 {
					t.Fatalf("cluster %d basis not orthonormal", ci)
				}
			}
		}
		for _, p := range cl.Members {
			if seen[p] {
				t.Fatalf("point %d in two clusters", p)
			}
			seen[p] = true
			if res.Assignments[p] != ci {
				t.Fatalf("assignment mismatch at %d", p)
			}
			total++
		}
		if cl.Energy < 0 {
			t.Fatalf("negative energy %v", cl.Energy)
		}
	}
	if total != ds.Len() {
		t.Fatalf("%d of %d points clustered", total, ds.Len())
	}
	if res.TotalEnergy < 0 {
		t.Fatalf("negative total energy")
	}
}

func TestDeterministic(t *testing.T) {
	ds, _ := orientedData(t, 19)
	a, err := Run(ds, Config{K: 3, L: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ds, Config{K: 3, L: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
	if a.TotalEnergy != b.TotalEnergy {
		t.Fatal("energy differs across identical runs")
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	// The assignment passes and the merge phases' pair scoring fan out
	// over goroutines, but each point's nearest seed and each pair's
	// union energy are pure functions of their inputs, and member lists
	// and merge picks are made serially afterwards, so the Result must
	// be identical, bit for bit, for any goroutine budget.
	ds, _ := orientedData(t, 19)
	for _, outliers := range []bool{false, true} {
		cfg := Config{K: 3, L: 2, Seed: 7, HandleOutliers: outliers, Workers: 1}
		base, err := Run(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 7} {
			cfg.Workers = w
			res, err := Run(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if msg := diffResults(base, res); msg != "" {
				t.Fatalf("outliers=%v workers=%d: %s", outliers, w, msg)
			}
		}
	}
}

// diffResults describes the first difference between two results'
// assignments, total energies and clusters (members, energy, and the
// bits of every centroid and basis coordinate), or returns "".
func diffResults(want, got *Result) string {
	if math.Float64bits(got.TotalEnergy) != math.Float64bits(want.TotalEnergy) {
		return fmt.Sprintf("energy %v != %v", got.TotalEnergy, want.TotalEnergy)
	}
	if !slices.Equal(got.Assignments, want.Assignments) {
		return "assignments differ"
	}
	if len(got.Clusters) != len(want.Clusters) {
		return fmt.Sprintf("%d clusters != %d", len(got.Clusters), len(want.Clusters))
	}
	for ci, w := range want.Clusters {
		g := got.Clusters[ci]
		switch {
		case !slices.Equal(g.Members, w.Members):
			return fmt.Sprintf("cluster %d members differ", ci)
		case math.Float64bits(g.Energy) != math.Float64bits(w.Energy):
			return fmt.Sprintf("cluster %d energy %v != %v", ci, g.Energy, w.Energy)
		case !sameBits(g.Centroid, w.Centroid):
			return fmt.Sprintf("cluster %d centroid differs", ci)
		case !sameBasis(g.Basis, w.Basis):
			return fmt.Sprintf("cluster %d basis differs", ci)
		}
	}
	return ""
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

func sameBasis(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, sameBits)
}

// referenceMerge is the all-pairs merge that the per-phase pair cache
// replaced: after every merge it rescores every pair. It is kept as
// the oracle the cached merge must match exactly, and it also returns
// the number of union energies it computed.
func referenceMerge(ds *dataset.Dataset, clusters []*state, kNew, lc int) ([]*state, int) {
	evals := 0
	for len(clusters) > kNew {
		bestA, bestB := -1, -1
		bestEnergy := math.Inf(1)
		for a := 0; a < len(clusters); a++ {
			for b := a + 1; b < len(clusters); b++ {
				e := unionEnergy(ds, clusters[a], clusters[b], lc)
				evals++
				if e < bestEnergy {
					bestA, bestB, bestEnergy = a, b, e
				}
			}
		}
		merged := &state{
			members: append(append([]int(nil), clusters[bestA].members...), clusters[bestB].members...),
		}
		if len(merged.members) > 0 {
			merged.seed = ds.Centroid(merged.members)
		} else {
			merged.seed = clusters[bestA].seed
		}
		if len(merged.members) >= 2 {
			if basis, err := leastSpreadBasis(ds, merged.members, lc); err == nil {
				merged.basis = basis
			}
		}
		if merged.basis == nil {
			merged.basis = clusters[bestA].basis
		}
		next := make([]*state, 0, len(clusters)-1)
		for i, c := range clusters {
			if i != bestA && i != bestB {
				next = append(next, c)
			}
		}
		clusters = append(next, merged)
	}
	return clusters, evals
}

// diffStates describes the first difference between two merge outputs:
// cluster order, members, and the bits of every seed and basis
// coordinate.
func diffStates(want, got []*state) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d clusters != %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		switch {
		case !slices.Equal(g.members, w.members):
			return fmt.Sprintf("cluster %d members differ", i)
		case !sameBits(g.seed, w.seed):
			return fmt.Sprintf("cluster %d seed differs", i)
		case !sameBasis(g.basis, w.basis):
			return fmt.Sprintf("cluster %d basis differs", i)
		}
	}
	return ""
}

// cloneStates deep-copies merge output, which later assignment passes
// overwrite in place.
func cloneStates(in []*state) []*state {
	out := make([]*state, len(in))
	for i, c := range in {
		basis := make([][]float64, len(c.basis))
		for j, v := range c.basis {
			basis[j] = slices.Clone(v)
		}
		out[i] = &state{seed: slices.Clone(c.seed), basis: basis, members: slices.Clone(c.members)}
	}
	return out
}

// duplicateData returns n points at eight distinct sites in 8
// dimensions. Seeds drawn from it coincide, so clusters end up empty or
// holding copies of one point, and many unions tie at zero energy: the
// merge picks then hinge on the tie-break.
func duplicateData(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	r := randx.New(4)
	sites := make([][]float64, 8)
	for i := range sites {
		sites[i] = make([]float64, 8)
		for j := range sites[i] {
			sites[i][j] = r.Uniform(0, 100)
		}
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = sites[r.Intn(len(sites))]
	}
	ds, err := dataset.FromRows(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestMergeMatchesAllPairsReference(t *testing.T) {
	// A run that merges with the reference records every phase's output.
	// Runs with the cached merge at each worker count must then produce
	// the same output phase by phase, and the same Result.
	inputs := []*dataset.Dataset{duplicateData(t, 300)}
	for seed := uint64(31); seed <= 33; seed++ {
		ds, _, err := synth.Generate(synth.Config{
			N: 300, Dims: 8, K: 3, FixedDims: 3, MinSizeFraction: 0.1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, ds)
	}
	for i, ds := range inputs {
		seed := uint64(i + 1)
		for _, k0f := range []int{2, 5, 8} {
			for _, alpha := range []float64{0.3, 0.5, 0.7} {
				cfg := Config{K: 2, L: 3, K0Factor: k0f, Alpha: alpha, Seed: seed}
				var phases [][]*state
				recorded := func(ds *dataset.Dataset, clusters []*state, kNew, lc, _ int) ([]*state, int, error) {
					out, n := referenceMerge(ds, clusters, kNew, lc)
					phases = append(phases, cloneStates(out))
					return out, n, nil
				}
				want, err := run(ds, cfg, recorded)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 7} {
					cfg.Workers = w
					label := fmt.Sprintf("seed=%d k0factor=%d alpha=%v workers=%d", seed, k0f, alpha, w)
					phase := 0
					checked := func(ds *dataset.Dataset, clusters []*state, kNew, lc, workers int) ([]*state, int, error) {
						got, n, err := merge(ds, clusters, kNew, lc, workers)
						if err != nil {
							t.Fatalf("%s: phase %d: %v", label, phase, err)
						}
						if phase == len(phases) {
							t.Fatalf("%s: more merge phases than the reference's %d", label, len(phases))
						}
						if msg := diffStates(phases[phase], got); msg != "" {
							t.Fatalf("%s: phase %d: %s", label, phase, msg)
						}
						phase++
						return got, n, nil
					}
					got, err := run(ds, cfg, checked)
					if err != nil {
						t.Fatal(err)
					}
					if phase != len(phases) {
						t.Fatalf("%s: %d merge phases, reference had %d", label, phase, len(phases))
					}
					if msg := diffResults(want, got); msg != "" {
						t.Fatalf("%s: result: %s", label, msg)
					}
				}
			}
		}
	}
}

func TestMergeScoresEachPairOncePerPhase(t *testing.T) {
	// k0 = 25 clusters merge 25 → 12 → 6 → 5 at alpha 0.5. Rescoring
	// every pair after every merge costs sum over m of m(m-1)/2 union
	// energies (2,580); scoring every pair once per phase and then only
	// the new cluster's pairs costs 300+210 + 66+40 + 15 = 631.
	ds, _, err := synth.Generate(synth.Config{
		N: 250, Dims: 12, K: 5, FixedDims: 4, MinSizeFraction: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 5, L: 4, K0Factor: 5, Alpha: 0.5, Seed: 9}
	var refEvals int
	reference := func(ds *dataset.Dataset, clusters []*state, kNew, lc, _ int) ([]*state, int, error) {
		out, n := referenceMerge(ds, clusters, kNew, lc)
		refEvals += n
		return out, n, nil
	}
	if _, err := run(ds, cfg, reference); err != nil {
		t.Fatal(err)
	}
	var evals int
	counted := func(ds *dataset.Dataset, clusters []*state, kNew, lc, workers int) ([]*state, int, error) {
		out, n, err := merge(ds, clusters, kNew, lc, workers)
		evals += n
		return out, n, err
	}
	if _, err := run(ds, cfg, counted); err != nil {
		t.Fatal(err)
	}
	if refEvals != 2580 {
		t.Errorf("all-pairs reference computed %d union energies, want 2580", refEvals)
	}
	if evals != 631 {
		t.Errorf("cached merge computed %d union energies, want 631", evals)
	}
}

// hugeData returns 60 points in 3 dimensions whose coordinates are
// multiples of ±1e200: finite, so Validate accepts them, but the
// covariance of any two of them overflows.
func hugeData(t *testing.T) *dataset.Dataset {
	t.Helper()
	rows := make([][]float64, 60)
	for i := range rows {
		rows[i] = make([]float64, 3)
		for j := range rows[i] {
			v := float64((i*7+j*5)%9+1) * 1e200
			if (i+j)%2 == 1 {
				v = -v
			}
			rows[i][j] = v
		}
	}
	ds, err := dataset.FromRows(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestOverflowingCovarianceErrors(t *testing.T) {
	ds := hugeData(t)
	if err := ds.Validate(); err != nil {
		t.Fatalf("hostile input must pass Validate to reach ORCLUS: %v", err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		// Every union of two or more of these points has an infinite
		// energy, so the first merge phase runs out of finite pairs
		// before it reaches k.
		{"merge", Config{K: 2, L: 1, Seed: 1}, "has a finite union energy"},
		// k0 = k: no merge runs, and the final basis cannot be computed.
		{"final basis", Config{K: 2, L: 1, K0Factor: 1, Seed: 1}, "orclus: basis of"},
	} {
		res, err := Run(ds, tc.cfg)
		if err == nil {
			t.Errorf("%s: no error; cluster 0 basis has %d vectors for L = 1, energy %v",
				tc.name, len(res.Clusters[0].Basis), res.Clusters[0].Energy)
			continue
		}
		if !errors.Is(err, errNoBasis) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want %q wrapping errNoBasis", tc.name, err, tc.want)
		}
	}
}

func TestAxisParallelStillWorks(t *testing.T) {
	// ORCLUS generalizes PROCLUS: on axis-parallel projected clusters it
	// should also separate well.
	ds, _, err := synth.Generate(synth.Config{
		N: 3000, Dims: 10, K: 3, FixedDims: 4, OutlierFraction: -1,
		MinSizeFraction: 0.2, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ds, Config{K: 3, L: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := eval.AdjustedRandIndex(ds.Labels(), res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.8 {
		t.Fatalf("ARI = %.3f on axis-parallel clusters", ari)
	}
}

func TestStripOutliersSphereOfInfluence(t *testing.T) {
	// White-box: two tight 1-d-subspace clusters on the x axis plus one
	// point far beyond both spheres of influence and one point between
	// the centroids (inside a sphere). Only the far point may be
	// stripped.
	ds, err := dataset.FromRows([][]float64{
		{0, 0}, {1, 0}, {2, 0}, // cluster 0, centroid (1, 0)
		{100, 0}, {101, 0}, {102, 0}, // cluster 1, centroid (101, 0)
		{50, 0},   // midpoint: within Δ (inter-centroid distance 100) of both
		{5000, 0}, // far out: beyond both spheres
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	basis := [][]float64{{1, 0}} // project onto x
	clusters := []*state{
		{basis: basis, members: []int{0, 1, 2, 6}},
		{basis: basis, members: []int{3, 4, 5, 7}},
	}
	stripOutliers(ds, clusters, &obs.Counters{})
	has := func(c *state, v int) bool {
		for _, m := range c.members {
			if m == v {
				return true
			}
		}
		return false
	}
	for i := 0; i < 3; i++ {
		if !has(clusters[0], i) {
			t.Fatalf("tight member %d stripped", i)
		}
		if !has(clusters[1], i+3) {
			t.Fatalf("tight member %d stripped", i+3)
		}
	}
	if !has(clusters[0], 6) {
		t.Fatal("in-sphere midpoint stripped")
	}
	if has(clusters[1], 7) {
		t.Fatal("far-out point survived the sphere-of-influence rule")
	}
}

func TestHandleOutliersEndToEnd(t *testing.T) {
	// End-to-end: the option must run cleanly and only ever remove a
	// modest fraction of the points on clean cluster data.
	ds, _ := orientedData(t, 41)
	res, err := Run(ds, Config{K: 3, L: 2, Seed: 3, HandleOutliers: true})
	if err != nil {
		t.Fatal(err)
	}
	outliers := 0
	for _, a := range res.Assignments {
		if a == OutlierID {
			outliers++
		}
	}
	if outliers > ds.Len()/4 {
		t.Fatalf("%d of %d points flagged; outlier rule too aggressive", outliers, ds.Len())
	}
}

func TestHandleOutliersOffKeepsEveryPoint(t *testing.T) {
	ds, _ := orientedData(t, 43)
	res, err := Run(ds, Config{K: 3, L: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Assignments {
		if a < 0 {
			t.Fatalf("point %d unassigned despite HandleOutliers=false", i)
		}
	}
}

// TestRunAllDuplicatePoints pins ORCLUS's documented result on points
// that are all identical: every projected distance and every energy is
// 0, so every tie goes to the lowest seed and every point lies on every
// sphere of influence. Cluster 0 then holds every point, the other
// clusters are empty, no point is an outlier and the total energy is 0,
// with outlier handling off and on and for any worker count.
func TestRunAllDuplicatePoints(t *testing.T) {
	cases := []struct {
		n, d, l int
		seed    uint64
		ks      []int
	}{
		{50, 3, 2, 8, []int{2}},
		{300, 6, 3, 5, []int{1, 2, 3}},
	}
	for _, c := range cases {
		ds := dataset.New(c.d)
		pt := make([]float64, c.d)
		for j := range pt {
			pt[j] = 5
		}
		for i := 0; i < c.n; i++ {
			ds.Append(pt)
		}
		for _, k := range c.ks {
			for _, outliers := range []bool{false, true} {
				for _, workers := range []int{1, 2} {
					cfg := Config{K: k, L: c.l, Seed: c.seed, HandleOutliers: outliers, Workers: workers}
					ctx := fmt.Sprintf("n=%d d=%d k=%d outliers=%v workers=%d", c.n, c.d, k, outliers, workers)
					res, err := Run(ds, cfg)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					if len(res.Clusters) != k {
						t.Fatalf("%s: %d clusters", ctx, len(res.Clusters))
					}
					for i, cl := range res.Clusters {
						want := 0
						if i == 0 {
							want = c.n
						}
						if len(cl.Members) != want {
							t.Fatalf("%s: cluster %d holds %d points, want %d", ctx, i, len(cl.Members), want)
						}
					}
					for i, a := range res.Assignments {
						if a != 0 {
							t.Fatalf("%s: point %d assigned to %d, want 0", ctx, i, a)
						}
					}
					if res.TotalEnergy != 0 {
						t.Fatalf("%s: total energy %v, want 0", ctx, res.TotalEnergy)
					}
				}
			}
		}
	}
}

func TestTinyDataset(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{
		{0, 0}, {0.5, 0.5}, {10, 10}, {10.5, 10.5},
	}, nil)
	res, err := Run(ds, Config{K: 2, L: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters: %d", len(res.Clusters))
	}
}
