package clique

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/synth"
)

// digestInputs are the inputs of TestOutputDigests: the benchmark
// ledger's baselines shape at two seeds, a Case-1-shaped input whose
// lattice reaches level 8, and 20 copies of one point in 8 dimensions,
// which at Xi = 255 fills every level up to the unit key's capacity.
func digestInputs(t *testing.T) map[string]*dataset.Dataset {
	t.Helper()
	gen := func(cfg synth.Config) *dataset.Dataset {
		ds, _, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	dup := dataset.New(8)
	for i := 0; i < 20; i++ {
		dup.Append([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	}
	return map[string]*dataset.Dataset{
		"baselines-s3":  gen(synth.Config{N: 3000, Dims: 12, K: 5, FixedDims: 4, MinSizeFraction: 0.1, Seed: 3}),
		"baselines-s11": gen(synth.Config{N: 3000, Dims: 12, K: 5, FixedDims: 4, MinSizeFraction: 0.1, Seed: 11}),
		"case1-d20":     gen(synth.Config{N: 1000, Dims: 20, K: 5, FixedDims: 7, Seed: 3}),
		"dup-d8":        dup,
	}
}

// resultDigest hashes everything a CLIQUE run reports about its
// input: every cluster's subspace, units, unit counts and size, the
// dense-unit counts per level, the level reached, the work counters and
// the grid. The stream delivery counters are left out: they describe
// how the points arrived, not what was found.
func resultDigest(res *Result) string {
	h := fnv.New64a()
	for _, cl := range res.Clusters {
		fmt.Fprintf(h, "cluster %v size %d\n", cl.Dims, cl.Size)
		for _, u := range cl.Units {
			fmt.Fprintf(h, "unit %v %v %d\n", u.Dims, u.Intervals, u.Count)
		}
	}
	c := res.Stats.Counters
	fmt.Fprintf(h, "dense %v levels %d points %d probes %d xi %d grid %v %v\n",
		res.DenseBySubspaceDim, res.Levels, c.PointsScanned, c.DenseUnitProbes,
		res.Xi, res.GridMin, res.GridMax)
	return fmt.Sprintf("%016x", h.Sum64())
}

// pointDigest hashes the partition view and the point assigner's
// answer for every point of ds.
func pointDigest(t *testing.T, ds *dataset.Dataset, res *Result) string {
	t.Helper()
	h := fnv.New64a()
	fmt.Fprintf(h, "view %v\n", PartitionView(ds, res))
	a, err := NewPointAssigner(res)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < ds.Len(); p++ {
		fmt.Fprintf(h, "%d,", a.Assign(ds.Point(p)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestOutputDigests pins CLIQUE's complete output on a grid of inputs
// and settings as "<resultDigest>/<pointDigest>". Every case runs at 1,
// 2 and 7 workers in memory and streamed over 97-point blocks; every
// run must give the pinned result digest, or, for a run that fails, the
// pinned error message. The partition view and the assigner are
// functions of the Result, so the point digest is taken on the first
// run only.
func TestOutputDigests(t *testing.T) {
	inputs := digestInputs(t)
	settings := map[string]Config{
		"tau0.005": {Tau: 0.005},
		"tau0.01":  {Tau: 0.01},
		"xi7":      {Xi: 7, Tau: 0.01},
		"xi255":    {Xi: 255, Tau: 0.004},
		"dup":      {Xi: 255, Tau: 0.5},
		"mdl":      {Tau: 0.01, MDLPruning: true},
		"maximal":  {Tau: 0.01, ReportMaximal: true},
		"highest":  {Tau: 0.01, ReportHighest: true},
		"fixed3":   {Tau: 0.01, FixedDims: 3},
		"guard":    {Tau: 0.01, MaxUnitsPerLevel: 1000},
	}
	const guardErr = "clique: level 2 candidate set exceeds 1000 units; raise Tau or set MaxDims"
	cases := []struct{ input, setting, want string }{
		{"baselines-s3", "tau0.01", "07f5b5010e668185/b27d27223b79edc4"},
		{"baselines-s3", "xi7", "9a89ed5aa441d917/9f74df2ed01ea76a"},
		{"baselines-s3", "xi255", "7b91131912f7df77/9d8d77b14ddf1182"},
		{"baselines-s3", "mdl", "284ecd231c49ced7/b1924cc5a928b8be"},
		{"baselines-s3", "maximal", "a11cc3a2e2b22938/8a8ed856892d1652"},
		{"baselines-s3", "highest", "756287da20d227d6/a983ce9738df4a62"},
		{"baselines-s3", "fixed3", "f913cba009cca7da/c37758eca0fa816a"},
		{"baselines-s3", "guard", guardErr},
		{"baselines-s11", "tau0.01", "8038e3b87576acce/28cef14171b40ea2"},
		{"baselines-s11", "xi7", "53ce0dde36def47a/b0c0b45bd7c38b82"},
		{"baselines-s11", "xi255", "1aff007de7ea3660/00cff52a6197821a"},
		{"baselines-s11", "mdl", "4637842db7ff25a2/9b5150725b93e3c6"},
		{"baselines-s11", "maximal", "f430aeec293c240a/ae7276e7ab9062b2"},
		{"baselines-s11", "highest", "5977206fb0a6fa5f/7f5cf06a8e2d04aa"},
		{"baselines-s11", "fixed3", "ddcf6b5db7c35592/8952af7954dc1186"},
		{"baselines-s11", "guard", guardErr},
		{"case1-d20", "tau0.005", "e066d4d33e8ce32a/6ec21c94062a31d0"},
		{"dup-d8", "dup", "9de303a13cf2248d/346ae98804f1d120"},
	}
	for _, c := range cases {
		ds, cfg := inputs[c.input], settings[c.setting]
		t.Run(c.input+"/"+c.setting, func(t *testing.T) {
			first := true
			check := func(run string, res *Result, err error) {
				t.Helper()
				got, want := "", c.want
				switch {
				case err != nil:
					got = err.Error()
				case first:
					got = resultDigest(res) + "/" + pointDigest(t, ds, res)
				default:
					want, _, _ = strings.Cut(c.want, "/")
					got = resultDigest(res)
				}
				first = false
				if got != want {
					t.Errorf("%s: got %q, want %q", run, got, want)
				}
			}
			for _, workers := range []int{1, 2, 7} {
				wcfg := cfg
				wcfg.Workers = workers
				res, err := Run(ds, wcfg)
				check(fmt.Sprintf("workers=%d", workers), res, err)
			}
			res, err := RunStream(context.Background(), dataset.NewMemorySource(ds, 97), cfg)
			check("stream/block=97", res, err)
		})
	}
}
