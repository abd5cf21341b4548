package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/synth"
)

// kernelData is a table1-shaped dataset: 20-dimensional points, five
// clusters each tight in 7 dimensions — the paper's Case 1 regime the
// pinned benchmark configuration runs on.
func kernelData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 2500, Dims: 20, K: 5, FixedDims: 7, MinSizeFraction: 0.1, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// highdimData is a Figure 9-shaped dataset: 100-dimensional points,
// five clusters each tight in 5 dimensions. At d = 100 a cluster's
// dimension set covers a twentieth of the space, so this shape is where
// the hill climb's per-trial work is least like the Case 1 regime.
func highdimData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 1500, Dims: 100, K: 5, FixedDims: 5, MinSizeFraction: 0.1, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// outputDigest hashes everything a PROCLUS run decides: every point's
// assignment (outliers included), each cluster's medoid and dimension
// set, the objective's bits, the trial count and the bits of every
// trial objective in order. Counters and timings are left out: they
// describe the work done, not the answer.
func outputDigest(res *Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "assign %v\n", res.Assignments)
	for _, cl := range res.Clusters {
		fmt.Fprintf(h, "medoid %d dims %v\n", cl.Medoid, cl.Dimensions)
	}
	fmt.Fprintf(h, "objective %x iterations %d\n", math.Float64bits(res.Objective), res.Iterations)
	for _, v := range res.Stats.ObjectiveTrace {
		fmt.Fprintf(h, "%x,", math.Float64bits(v))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestOutputDigests pins PROCLUS's complete output, one digest per
// entry point and configuration: on the Case 1 shape (d = 20, l = 7)
// and on the high-dimensional shape (d = 100, l = 5, subtests prefixed
// highdim/). Configurations are named by metric and refinement. The
// paper's method, segmental/refine, must give its digest from Run and
// from the reference at 1, 2 and 7 workers, and from RunStream over 19-
// and 256-point blocks at 1 and 4 workers. The ablations run only
// through the reference, at 1, 2 and 7 workers. Neither the engine, the
// worker count nor the block size may move a digest.
func TestOutputDigests(t *testing.T) {
	ablations := map[string]ablation{
		"segmental/refine": {},
		"segmental/skip":   {skipRefine: true},
		"manhattan/refine": {manhattan: true},
		"manhattan/skip":   {manhattan: true, skipRefine: true},
	}
	type digestCase struct{ entry, config, want string }
	shapes := []struct {
		prefix string
		data   func(*testing.T) *dataset.Dataset
		l      int
		cases  []digestCase
	}{
		{"", kernelData, 7, []digestCase{
			{"run", "segmental/refine", "ad88b17481214b00"},
			{"run", "segmental/skip", "65c3bc8caaf7f006"},
			{"run", "manhattan/refine", "0604946aa833cbcb"},
			{"run", "manhattan/skip", "332cc52a3b1c70c7"},
			{"stream", "segmental/refine", "73e29f70ae9c9dbf"},
		}},
		{"highdim/", highdimData, 5, []digestCase{
			{"run", "segmental/refine", "12d4d993c3ddaf42"},
			{"run", "manhattan/refine", "209ab2d616356e23"},
			{"stream", "segmental/refine", "aff7dee46cabe2e2"},
		}},
	}
	for _, sh := range shapes {
		ds := sh.data(t)
		for _, c := range sh.cases {
			cfg := Config{K: 5, L: sh.l, Seed: 17, Restarts: 2}
			ab := ablations[c.config]
			t.Run(sh.prefix+c.entry+"/"+c.config, func(t *testing.T) {
				check := func(run string, res *Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", run, err)
					}
					if got := outputDigest(res); got != c.want {
						t.Errorf("%s: digest %s, want %s", run, got, c.want)
					}
				}
				if c.entry == "run" {
					for _, workers := range []int{1, 2, 7} {
						rcfg := cfg
						rcfg.Workers = workers
						if ab == (ablation{}) {
							res, err := Run(ds, rcfg)
							check(fmt.Sprintf("Run workers=%d", workers), res, err)
						}
						res, err := referenceRun(ds, rcfg, ab)
						check(fmt.Sprintf("reference workers=%d", workers), res, err)
					}
					return
				}
				for _, block := range []int{19, 256} {
					for _, workers := range []int{1, 4} {
						scfg := cfg
						scfg.Workers = workers
						res, err := RunStream(context.Background(), dataset.NewMemorySource(ds, block), scfg)
						check(fmt.Sprintf("block=%d workers=%d", block, workers), res, err)
					}
				}
			})
		}
	}
}
