package medoid

import (
	"math"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/randx"
)

func threeBlobs(t *testing.T) *dataset.Dataset {
	t.Helper()
	r := randx.New(1)
	ds := dataset.New(2)
	for g, c := range [][2]float64{{10, 10}, {50, 90}, {90, 10}} {
		for i := 0; i < 60; i++ {
			ds.AppendLabeled([]float64{
				c[0] + r.Normal(0, 2), c[1] + r.Normal(0, 2),
			}, g)
		}
	}
	return ds
}

func TestRunValidates(t *testing.T) {
	ds := threeBlobs(t)
	if _, err := Run(ds, Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Run(ds, Config{K: 1000}); err == nil {
		t.Error("K>N accepted")
	}
	bad := dataset.New(1)
	bad.Append([]float64{math.NaN()})
	if _, err := Run(bad, Config{K: 1}); err == nil {
		t.Error("NaN dataset accepted")
	}
}

func TestRecoversWellSeparatedBlobs(t *testing.T) {
	ds := threeBlobs(t)
	res, err := Run(ds, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Each output cluster must be pure.
	for ci := 0; ci < 3; ci++ {
		counts := map[int]int{}
		for p, a := range res.Assignments {
			if a == ci {
				counts[ds.Label(p)]++
			}
		}
		total, best := 0, 0
		for _, c := range counts {
			total += c
			if c > best {
				best = c
			}
		}
		if total == 0 {
			t.Fatalf("cluster %d empty", ci)
		}
		if best != total {
			t.Fatalf("cluster %d impure: %v", ci, counts)
		}
	}
}

func TestCostIsSumOfDistances(t *testing.T) {
	ds := threeBlobs(t)
	res, err := Run(ds, Config{K: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for p, a := range res.Assignments {
		want += dist.SegmentalAll(ds.Point(p), ds.Point(res.Medoids[a]))
	}
	if math.Abs(res.Cost-want) > 1e-9 {
		t.Fatalf("cost %v, recomputed %v", res.Cost, want)
	}
}

func TestDeterministic(t *testing.T) {
	ds := threeBlobs(t)
	a, _ := Run(ds, Config{K: 3, Seed: 5})
	b, _ := Run(ds, Config{K: 3, Seed: 5})
	if a.Cost != b.Cost {
		t.Fatalf("costs differ: %v vs %v", a.Cost, b.Cost)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
}

func TestMoreRestartsNeverWorse(t *testing.T) {
	ds := threeBlobs(t)
	one, err := Run(ds, Config{K: 3, Seed: 9, Restarts: 1, MaxNeighbors: 10})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(ds, Config{K: 3, Seed: 9, Restarts: 6, MaxNeighbors: 10})
	if err != nil {
		t.Fatal(err)
	}
	if many.Cost > one.Cost {
		t.Fatalf("6 restarts cost %v worse than 1 restart %v", many.Cost, one.Cost)
	}
}

func TestCustomDistance(t *testing.T) {
	ds := threeBlobs(t)
	res, err := Run(ds, Config{K: 3, Seed: 2, Distance: dist.Euclidean})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Medoids) != 3 {
		t.Fatalf("medoids %v", res.Medoids)
	}
}

// TestCountersBoundedAndGeneric pins the k-medoids work counters:
// every evaluation reads the whole row, so none is abandoned and the
// coordinates visited are exactly evaluations × d.
func TestCountersBoundedAndGeneric(t *testing.T) {
	ds := threeBlobs(t)
	generic, err := Run(ds, Config{K: 3, Seed: 5, Distance: dist.SegmentalAll})
	if err != nil {
		t.Fatal(err)
	}
	g := generic.Stats.Counters
	if g.DistanceEvals == 0 || g.PointsScanned == 0 {
		t.Fatalf("counters not threaded: %+v", g)
	}
	if g.DistanceEvalsFull != g.DistanceEvals || g.DistanceEvalsAbandoned != 0 {
		t.Fatalf("generic scan cannot abandon: %+v", g)
	}
	if g.CoordsVisited != g.DistanceEvals*int64(ds.Dims()) {
		t.Fatalf("generic coords_visited %d != %d evals × %d dims",
			g.CoordsVisited, g.DistanceEvals, ds.Dims())
	}
}

func TestKEqualsN(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0, 0}, {5, 5}, {9, 9}}, nil)
	res, err := Run(ds, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Fatalf("cost %v with every point a medoid", res.Cost)
	}
}

func TestFullDimensionalityMissesProjectedClusters(t *testing.T) {
	// The paper's motivating claim (§1, Figure 1): clusters tight in
	// different subspaces but uniform elsewhere are hard to separate in
	// full dimensionality. Build 2 projected clusters in 10-dim space and
	// check the full-dim baseline recovers them substantially worse than
	// perfectly (purity well below 1); this guards the motivation rather
	// than a precise number.
	r := randx.New(11)
	ds := dataset.New(10)
	for i := 0; i < 200; i++ {
		p := make([]float64, 10)
		for j := range p {
			p[j] = r.Uniform(0, 100)
		}
		p[0], p[1] = r.Normal(20, 1), r.Normal(20, 1)
		ds.AppendLabeled(p, 0)
	}
	for i := 0; i < 200; i++ {
		p := make([]float64, 10)
		for j := range p {
			p[j] = r.Uniform(0, 100)
		}
		p[8], p[9] = r.Normal(80, 1), r.Normal(80, 1)
		ds.AppendLabeled(p, 1)
	}
	res, err := Run(ds, Config{K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for p, a := range res.Assignments {
		if a == ds.Label(p) {
			agree++
		}
	}
	frac := float64(agree) / float64(ds.Len())
	if frac < 0.5 {
		frac = 1 - frac // label permutation
	}
	if frac > 0.95 {
		t.Fatalf("full-dimensional k-medoids separated projected clusters too well (%.2f); motivating premise violated", frac)
	}
}
