package medoid

import (
	"math"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/randx"
	"proclus/internal/sample"
)

// tally counts a descent's work in the units the counters are built
// from: restarts, swap attempts (random swaps whose candidate is not
// already a medoid) and accepted swaps.
type tally struct{ restarts, attempts, accepts int64 }

// referenceRun is the descent without nearest and second-nearest
// bookkeeping: every swap attempt reassigns every point to every
// medoid. It draws the same random numbers as Run and is the oracle
// Run's output must match bit for bit.
func referenceRun(t *testing.T, ds *dataset.Dataset, cfg Config) (*Result, tally) {
	t.Helper()
	cfg = cfg.withDefaults()
	n := ds.Len()
	rng := randx.New(cfg.Seed)
	tl := tally{restarts: int64(cfg.Restarts)}
	var best *Result
	for restart := 0; restart < cfg.Restarts; restart++ {
		medoids, err := sample.WithoutReplacement(rng, n, cfg.K)
		if err != nil {
			t.Fatal(err)
		}
		assign, cost := assignAll(ds, cfg.Distance, medoids)
		inSet := make(map[int]bool, cfg.K)
		for _, m := range medoids {
			inSet[m] = true
		}
		failures := 0
		for failures < cfg.MaxNeighbors {
			pos := rng.Intn(cfg.K)
			cand := rng.Intn(n)
			if inSet[cand] {
				failures++
				continue
			}
			tl.attempts++
			old := medoids[pos]
			medoids[pos] = cand
			newAssign, newCost := assignAll(ds, cfg.Distance, medoids)
			if newCost < cost {
				tl.accepts++
				delete(inSet, old)
				inSet[cand] = true
				assign, cost = newAssign, newCost
				failures = 0
			} else {
				medoids[pos] = old
				failures++
			}
		}
		if best == nil || cost < best.Cost {
			best = &Result{Medoids: medoids, Assignments: assign, Cost: cost}
		}
	}
	return best, tl
}

// assignAll assigns every point to its nearest medoid and returns the
// assignment and total cost. Ties break toward the lower medoid
// position.
func assignAll(ds *dataset.Dataset, d dist.Func, medoids []int) ([]int, float64) {
	assign := make([]int, ds.Len())
	var cost float64
	medoidPts := make([][]float64, len(medoids))
	for i, m := range medoids {
		medoidPts[i] = ds.Point(m)
	}
	ds.Each(func(p int, pt []float64) {
		bestIdx, bestDist := 0, math.Inf(1)
		for i := range medoidPts {
			if dd := d(pt, medoidPts[i]); dd < bestDist {
				bestIdx, bestDist = i, dd
			}
		}
		assign[p] = bestIdx
		cost += bestDist
	})
	return assign, cost
}

// TestMatchesReference runs the digest grid, plus two descents over
// points on an integer lattice, through Run and through referenceRun
// and requires the same digest on every case. On the lattice many
// points are equally far from two medoids, so a point's second-nearest
// distance often equals its nearest. The cases run in parallel: the
// reference takes most of the package's test time.
func TestMatchesReference(t *testing.T) {
	inputs := digestInputs(t)
	r := randx.New(5)
	lattice := dataset.New(3)
	for i := 0; i < 300; i++ {
		lattice.Append([]float64{float64(r.Intn(4)), float64(r.Intn(4)), float64(r.Intn(4))})
	}
	inputs["lattice"] = lattice
	cases := append(digestGrid(),
		digestCase{"lattice/k4", "lattice", Config{K: 4, Seed: 3}},
		digestCase{"lattice/k6-wide", "lattice", Config{K: 6, MaxNeighbors: 200, Restarts: 3, Seed: 3}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ds := inputs[c.input]
			got, err := Run(ds, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := referenceRun(t, ds, c.cfg)
			if g, w := resultDigest(got), resultDigest(want); g != w {
				t.Errorf("Run digest %s, reference %s", g, w)
			}
		})
	}
}
