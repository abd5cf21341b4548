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

// TestOutputDigests pins PROCLUS's complete output on the Case 1 shape,
// one digest per entry point, assignment metric and refinement setting.
// Run must give its digest under both evaluation engines at 1, 2 and 7
// workers; RunStream must give its digest over 19- and 256-point blocks
// at 1 and 4 workers. Neither the engine, the worker count nor the
// block size may move a digest.
func TestOutputDigests(t *testing.T) {
	ds := kernelData(t)
	metrics := map[string]AssignMetric{"segmental": MetricSegmental, "manhattan": MetricManhattan}
	refines := map[string]bool{"refine": false, "skip": true}
	cases := []struct{ entry, metric, refine, want string }{
		{"run", "segmental", "refine", "ad88b17481214b00"},
		{"run", "segmental", "skip", "65c3bc8caaf7f006"},
		{"run", "manhattan", "refine", "0604946aa833cbcb"},
		{"run", "manhattan", "skip", "332cc52a3b1c70c7"},
		{"stream", "segmental", "refine", "73e29f70ae9c9dbf"},
		{"stream", "segmental", "skip", "3550de5755451a84"},
		{"stream", "manhattan", "refine", "65d168832a6d7e39"},
		{"stream", "manhattan", "skip", "47e0cbe742b21025"},
	}
	for _, c := range cases {
		cfg := Config{K: 5, L: 7, Seed: 17, Restarts: 2,
			AssignMetric: metrics[c.metric], SkipRefinement: refines[c.refine]}
		t.Run(c.entry+"/"+c.metric+"/"+c.refine, func(t *testing.T) {
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
				for _, eval := range []EvalMode{EvalIncremental, EvalNaive} {
					for _, workers := range []int{1, 2, 7} {
						rcfg := cfg
						rcfg.IncrementalEval, rcfg.Workers = eval, workers
						res, err := Run(ds, rcfg)
						check(fmt.Sprintf("eval=%v workers=%d", eval, workers), res, err)
					}
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
