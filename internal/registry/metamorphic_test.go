package registry

import (
	"context"
	"reflect"
	"testing"

	"proclus/internal/clique"
	"proclus/internal/core"
	"proclus/internal/dataset"
	"proclus/internal/medoid"
	"proclus/internal/orclus"
	"proclus/internal/synth"
)

// The registry is a pure router: for every algorithm, a registry-routed
// run must be bit-identical to the direct Run/RunStream call with the
// translated config — across worker counts and source kinds. These tests pin that property on the deterministic
// result fields (assignments, clusters, objectives, work counters);
// wall-time fields are excluded, since two runs of anything differ
// there.

func metamorphicData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 2000, Dims: 10, K: 3, FixedDims: 3, MinSizeFraction: 0.15, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func fitUnwrap[T any](t *testing.T, algo string, src Source, cfg Config) *T {
	t.Helper()
	m, err := Fit(context.Background(), algo, src, cfg)
	if err != nil {
		t.Fatalf("%s via registry: %v", algo, err)
	}
	res, ok := m.Unwrap().(*T)
	if !ok {
		t.Fatalf("%s: Unwrap returned %T", algo, m.Unwrap())
	}
	return res
}

func assertProclusIdentical(t *testing.T, direct, routed *core.Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(direct.Assignments, routed.Assignments) {
		t.Fatalf("%s: assignments differ", label)
	}
	if !reflect.DeepEqual(direct.Clusters, routed.Clusters) {
		t.Fatalf("%s: clusters differ", label)
	}
	if direct.Objective != routed.Objective || direct.Iterations != routed.Iterations ||
		direct.Seed != routed.Seed {
		t.Fatalf("%s: objective/iterations/seed differ: %v/%d/%d vs %v/%d/%d", label,
			direct.Objective, direct.Iterations, direct.Seed,
			routed.Objective, routed.Iterations, routed.Seed)
	}
	if direct.Stats.Counters != routed.Stats.Counters {
		t.Fatalf("%s: counters differ:\ndirect %+v\nrouted %+v", label,
			direct.Stats.Counters, routed.Stats.Counters)
	}
}

func TestProclusRoutedBitIdentical(t *testing.T) {
	ds := metamorphicData(t)
	for _, workers := range []int{1, 3} {
		direct, err := core.Run(ds, core.Config{K: 3, L: 3, Seed: 13, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		routed := fitUnwrap[core.Result](t, "proclus", Source{Dataset: ds}, Config{
			K: 3, L: 3, Seed: 13, Workers: workers,
		})
		assertProclusIdentical(t, direct, routed, labelFmt("proclus", workers))
	}
}

func labelFmt(algo string, workers int) string {
	return algo + "/workers=" + itoa(workers)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestProclusStreamRoutedBitIdentical(t *testing.T) {
	ds := metamorphicData(t)
	for _, workers := range []int{1, 3} {
		ccfg := core.Config{K: 3, L: 3, Seed: 13, Workers: workers}
		direct, err := core.RunStream(context.Background(),
			dataset.NewMemorySource(ds, 300), ccfg)
		if err != nil {
			t.Fatal(err)
		}
		routed := fitUnwrap[core.Result](t, "proclus",
			Source{Stream: dataset.NewMemorySource(ds, 300)},
			Config{K: 3, L: 3, Seed: 13, Workers: workers})
		assertProclusIdentical(t, direct, routed, labelFmt("proclus-stream", workers))
	}
}

func TestCliqueRoutedBitIdentical(t *testing.T) {
	ds := metamorphicData(t)
	params := CliqueParams{Tau: 0.02, MDLPruning: true, ReportHighest: true}
	ccfg := clique.Config{Tau: 0.02, MDLPruning: true, ReportHighest: true}
	for _, workers := range []int{1, 2} {
		ccfg.Workers = workers
		direct, err := clique.Run(ds, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		routed := fitUnwrap[clique.Result](t, "clique", Source{Dataset: ds},
			Config{Clique: params, Workers: workers})
		assertCliqueIdentical(t, direct, routed, labelFmt("clique", workers))

		directStream, err := clique.RunStream(context.Background(),
			dataset.NewMemorySource(ds, 300), ccfg)
		if err != nil {
			t.Fatal(err)
		}
		routedStream := fitUnwrap[clique.Result](t, "clique",
			Source{Stream: dataset.NewMemorySource(ds, 300)},
			Config{Clique: params, Workers: workers})
		assertCliqueIdentical(t, directStream, routedStream,
			labelFmt("clique-stream", workers))
		// Streaming must not change the discovered structure either.
		assertCliqueIdentical(t, direct, &clique.Result{
			Clusters:           routedStream.Clusters,
			DenseBySubspaceDim: routedStream.DenseBySubspaceDim,
			Levels:             routedStream.Levels,
			Xi:                 routedStream.Xi,
			GridMin:            routedStream.GridMin,
			GridMax:            routedStream.GridMax,
			Config:             direct.Config,
			Stats:              direct.Stats,
		}, labelFmt("clique-stream-vs-mem", workers))
	}
}

func assertCliqueIdentical(t *testing.T, direct, routed *clique.Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(direct.Clusters, routed.Clusters) {
		t.Fatalf("%s: clusters differ", label)
	}
	if !reflect.DeepEqual(direct.DenseBySubspaceDim, routed.DenseBySubspaceDim) ||
		direct.Levels != routed.Levels || direct.Xi != routed.Xi {
		t.Fatalf("%s: lattice summary differs", label)
	}
	if !reflect.DeepEqual(direct.GridMin, routed.GridMin) ||
		!reflect.DeepEqual(direct.GridMax, routed.GridMax) {
		t.Fatalf("%s: grid bounds differ", label)
	}
	if direct.Stats.Counters != routed.Stats.Counters {
		t.Fatalf("%s: counters differ:\ndirect %+v\nrouted %+v", label,
			direct.Stats.Counters, routed.Stats.Counters)
	}
}

func TestOrclusRoutedBitIdentical(t *testing.T) {
	ds, _, err := synth.GenerateOriented(synth.OrientedConfig{
		N: 1500, Dims: 8, K: 3, L: 2, OutlierFraction: -1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		direct, err := orclus.Run(ds, orclus.Config{K: 3, L: 2, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		routed := fitUnwrap[orclus.Result](t, "orclus", Source{Dataset: ds},
			Config{K: 3, L: 2, Seed: 7, Workers: workers})
		label := labelFmt("orclus", workers)
		if !reflect.DeepEqual(direct.Assignments, routed.Assignments) {
			t.Fatalf("%s: assignments differ", label)
		}
		if !reflect.DeepEqual(direct.Clusters, routed.Clusters) {
			t.Fatalf("%s: clusters differ", label)
		}
		if direct.TotalEnergy != routed.TotalEnergy || direct.Seed != routed.Seed {
			t.Fatalf("%s: energy/seed differ", label)
		}
		if direct.Stats.Counters != routed.Stats.Counters {
			t.Fatalf("%s: counters differ", label)
		}
	}
}

func TestMedoidRoutedBitIdentical(t *testing.T) {
	ds := metamorphicData(t)
	direct, err := medoid.Run(ds, medoid.Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	routed := fitUnwrap[medoid.Result](t, "kmedoids", Source{Dataset: ds},
		Config{K: 3, Seed: 9})
	if !reflect.DeepEqual(direct, routed) {
		t.Fatalf("kmedoids: results differ:\ndirect %+v\nrouted %+v", direct, routed)
	}
}
