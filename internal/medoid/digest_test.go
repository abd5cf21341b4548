package medoid

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/dist"
	"proclus/internal/synth"
)

// digestCase is one input and setting of the output-digest grid.
type digestCase struct {
	name  string
	input string
	cfg   Config
}

// digestInputs are the inputs of the digest grid: the benchmark
// ledger's baselines shape at two seeds, 200 copies of one 3-d point
// (every distance ties at 0) and three distinct points.
func digestInputs(t *testing.T) map[string]*dataset.Dataset {
	t.Helper()
	gen := func(seed uint64) *dataset.Dataset {
		ds, _, err := synth.Generate(synth.Config{
			N: 3000, Dims: 12, K: 5, FixedDims: 4, MinSizeFraction: 0.1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	dup := dataset.New(3)
	for i := 0; i < 200; i++ {
		dup.Append([]float64{1, 2, 3})
	}
	three, err := dataset.FromRows([][]float64{{0, 0}, {5, 5}, {9, 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*dataset.Dataset{
		"baselines-s3":  gen(3),
		"baselines-s11": gen(11),
		"dup-d3":        dup,
		"three":         three,
	}
}

// digestGrid lists the cases of the digest grid in a fixed order: on
// each baselines input, the defaults at K 5 and a longer, wider
// descent at K 8, each under the default metric and Euclidean; then K
// 1, the duplicate input at K 1 and 3, and K = N.
func digestGrid() []digestCase {
	var cases []digestCase
	for _, input := range []string{"baselines-s3", "baselines-s11"} {
		for _, m := range []struct {
			name string
			d    dist.Func
		}{{"segmental", dist.SegmentalAll}, {"euclidean", dist.Euclidean}} {
			cases = append(cases,
				digestCase{input + "/k5/" + m.name, input, Config{K: 5, Seed: 4, Distance: m.d}},
				digestCase{input + "/k8-wide/" + m.name, input,
					Config{K: 8, MaxNeighbors: 200, Restarts: 3, Seed: 4, Distance: m.d}},
			)
		}
	}
	return append(cases,
		digestCase{"baselines-s3/k1", "baselines-s3", Config{K: 1, Seed: 4}},
		digestCase{"dup-d3/k1", "dup-d3", Config{K: 1, Seed: 2}},
		digestCase{"dup-d3/k3", "dup-d3", Config{K: 3, Seed: 2}},
		digestCase{"three/k3", "three", Config{K: 3, Seed: 1}},
	)
}

// resultDigest hashes what a run reports about its input: the medoids,
// every assignment and the bits of the cost. The work counters are
// left out.
func resultDigest(res *Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "medoids %v\nassign %v\ncost %016x\n",
		res.Medoids, res.Assignments, math.Float64bits(res.Cost))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestOutputDigests pins k-medoids' complete output on the digest
// grid. On the duplicate input every point must also land in cluster 0
// at cost 0, the lower-position tie-break.
func TestOutputDigests(t *testing.T) {
	inputs := digestInputs(t)
	want := map[string]string{
		"baselines-s3/k5/segmental":       "641ca91faafc5f65",
		"baselines-s3/k8-wide/segmental":  "5cda4c8953d371ba",
		"baselines-s3/k5/euclidean":       "fe5f4cc442ca61a5",
		"baselines-s3/k8-wide/euclidean":  "3bd0a73c6871f381",
		"baselines-s11/k5/segmental":      "8f1e1aba81af7e63",
		"baselines-s11/k8-wide/segmental": "353209576d9029e7",
		"baselines-s11/k5/euclidean":      "e30c7a3d27b8590d",
		"baselines-s11/k8-wide/euclidean": "fc8a2591a517f485",
		"baselines-s3/k1":                 "7b298fc233c71a0a",
		"dup-d3/k1":                       "caf3dffb1f78aaf9",
		"dup-d3/k3":                       "a5cdee132e1d4fef",
		"three/k3":                        "3a9e849c93bfdfde",
	}
	for _, c := range digestGrid() {
		res, err := Run(inputs[c.input], c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := resultDigest(res); got != want[c.name] {
			t.Errorf("%s: digest %s, want %s", c.name, got, want[c.name])
		}
		if c.input == "dup-d3" {
			if res.Cost != 0 {
				t.Errorf("%s: cost %v", c.name, res.Cost)
			}
			for p, a := range res.Assignments {
				if a != 0 {
					t.Fatalf("%s: point %d in cluster %d", c.name, p, a)
				}
			}
		}
	}
}
