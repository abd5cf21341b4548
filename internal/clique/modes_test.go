package clique

import (
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/randx"
)

// threeDimClusterData builds one 3-dim projected cluster plus noise in a
// 5-dim space.
func threeDimClusterData(seed uint64) *dataset.Dataset {
	r := randx.New(seed)
	ds := dataset.New(5)
	blob(r, ds, 700, map[int]float64{0: 30, 2: 30, 4: 30}, 2)
	blob(r, ds, 300, nil, 0)
	return ds
}

func TestReportHighestOnlyTopLevel(t *testing.T) {
	ds := threeDimClusterData(11)
	res, err := Run(ds, Config{Xi: 10, Tau: 0.05, ReportHighest: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters reported")
	}
	for _, cl := range res.Clusters {
		if len(cl.Dims) != res.Levels {
			t.Fatalf("cluster in %d-dim subspace, highest level is %d", len(cl.Dims), res.Levels)
		}
	}
}

func TestReportMaximalSuppressesProjections(t *testing.T) {
	ds := threeDimClusterData(12)
	all, err := Run(ds, Config{Xi: 10, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	maximal, err := Run(ds, Config{Xi: 10, Tau: 0.05, ReportMaximal: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(maximal.Clusters) >= len(all.Clusters) {
		t.Fatalf("maximal reporting did not reduce clusters: %d vs %d",
			len(maximal.Clusters), len(all.Clusters))
	}
	// Every maximal cluster's subspace must have no dense superset among
	// the other reported subspaces.
	for _, a := range maximal.Clusters {
		for _, b := range maximal.Clusters {
			if len(a.Dims) < len(b.Dims) && isSubset(a.Dims, b.Dims) {
				t.Fatalf("subspace %v reported despite dense superset %v", a.Dims, b.Dims)
			}
		}
	}
}

func isSubset(a, b []int) bool {
	set := map[int]bool{}
	for _, v := range b {
		set[v] = true
	}
	for _, v := range a {
		if !set[v] {
			return false
		}
	}
	return true
}

func TestFixedDimsOverridesModes(t *testing.T) {
	ds := threeDimClusterData(13)
	res, err := Run(ds, Config{Xi: 10, Tau: 0.05, FixedDims: 2, ReportHighest: true, ReportMaximal: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range res.Clusters {
		if len(cl.Dims) != 2 {
			t.Fatalf("FixedDims=2 violated: %v", cl.Dims)
		}
	}
}

func TestMDLPruningReducesLattice(t *testing.T) {
	ds := threeDimClusterData(14)
	raw, err := Run(ds, Config{Xi: 10, Tau: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Run(ds, Config{Xi: 10, Tau: 0.03, MDLPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	rawUnits, prunedUnits := 0, 0
	for _, n := range raw.DenseBySubspaceDim {
		rawUnits += n
	}
	for _, n := range pruned.DenseBySubspaceDim {
		prunedUnits += n
	}
	if prunedUnits > rawUnits {
		t.Fatalf("MDL pruning grew the lattice: %d > %d", prunedUnits, rawUnits)
	}
}

func TestMDLPruneKeepsAllOnUniformCoverage(t *testing.T) {
	// All subspaces with identical coverage: the keep-all code wins and
	// nothing is pruned.
	lv := &level{q: 1, subspaces: map[string]*subspaceUnits{}}
	for j := 0; j < 6; j++ {
		su := &subspaceUnits{dims: []int{j}, units: map[uint64]int{}}
		su.units[0] = 100
		lv.subspaces[subspaceKey(su.dims)] = su
	}
	out := mdlPrune(lv)
	if len(out.subspaces) != 6 {
		t.Fatalf("uniform coverage pruned to %d subspaces", len(out.subspaces))
	}
}

func TestMDLPruneCutsBimodalCoverage(t *testing.T) {
	// Three subspaces with coverage 1000 and three with coverage 10: the
	// two-group code beats keep-all and the tail is pruned.
	lv := &level{q: 1, subspaces: map[string]*subspaceUnits{}}
	for j := 0; j < 6; j++ {
		su := &subspaceUnits{dims: []int{j}, units: map[uint64]int{}}
		cov := 1000 + j // slight variation so deviations are nonzero
		if j >= 3 {
			cov = 10 + j
		}
		su.units[0] = cov
		lv.subspaces[subspaceKey(su.dims)] = su
	}
	out := mdlPrune(lv)
	if len(out.subspaces) != 3 {
		t.Fatalf("bimodal coverage kept %d subspaces, want 3", len(out.subspaces))
	}
	for _, su := range out.subspaces {
		if su.dims[0] >= 3 {
			t.Fatalf("low-coverage subspace %v survived", su.dims)
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	ds := threeDimClusterData(15)
	var prev *Result
	for _, workers := range []int{1, 3, 8} {
		res, err := Run(ds, Config{Xi: 10, Tau: 0.04, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if len(res.Clusters) != len(prev.Clusters) {
				t.Fatalf("cluster count changed with workers: %d vs %d",
					len(res.Clusters), len(prev.Clusters))
			}
			for i := range res.Clusters {
				if res.Clusters[i].Size != prev.Clusters[i].Size ||
					len(res.Clusters[i].Units) != len(prev.Clusters[i].Units) {
					t.Fatalf("cluster %d differs across worker counts", i)
				}
				for u := range res.Clusters[i].Units {
					if res.Clusters[i].Units[u].Count != prev.Clusters[i].Units[u].Count {
						t.Fatalf("unit counts differ across worker counts")
					}
				}
			}
		}
		prev = res
	}
}

func TestPartitionViewDisjointAndConsistent(t *testing.T) {
	ds := threeDimClusterData(16)
	res, err := Run(ds, Config{Xi: 10, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	assign := PartitionView(ds, res)
	if len(assign) != ds.Len() {
		t.Fatalf("assignments: %d", len(assign))
	}
	members := Membership(ds, res)
	memberSet := make([]map[int]bool, len(members))
	for ci, m := range members {
		memberSet[ci] = map[int]bool{}
		for _, p := range m {
			memberSet[ci][p] = true
		}
	}
	covered := map[int]bool{}
	for _, m := range members {
		for _, p := range m {
			covered[p] = true
		}
	}
	maxDims := 0
	for p, a := range assign {
		if a == -1 {
			if covered[p] {
				t.Fatalf("covered point %d unassigned", p)
			}
			continue
		}
		if !memberSet[a][p] {
			t.Fatalf("point %d assigned to cluster %d that does not contain it", p, a)
		}
		// Preference: no containing cluster may have strictly more dims.
		for ci := range members {
			if memberSet[ci][p] && len(res.Clusters[ci].Dims) > len(res.Clusters[a].Dims) {
				t.Fatalf("point %d assigned to %d-dim cluster despite %d-dim alternative",
					p, len(res.Clusters[a].Dims), len(res.Clusters[ci].Dims))
			}
		}
		if len(res.Clusters[a].Dims) > maxDims {
			maxDims = len(res.Clusters[a].Dims)
		}
	}
	if maxDims < 2 {
		t.Fatal("partition view never used a multi-dimensional cluster")
	}
}

func TestPartitionViewDeterministic(t *testing.T) {
	ds := threeDimClusterData(17)
	res, err := Run(ds, Config{Xi: 10, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	a := PartitionView(ds, res)
	b := PartitionView(ds, res)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestMDLPruneSmallLevelsUntouched(t *testing.T) {
	lv := &level{q: 1, subspaces: map[string]*subspaceUnits{}}
	for j := 0; j < 2; j++ {
		su := &subspaceUnits{dims: []int{j}, units: map[uint64]int{0: 5}}
		lv.subspaces[subspaceKey(su.dims)] = su
	}
	if out := mdlPrune(lv); len(out.subspaces) != 2 {
		t.Fatal("levels with <= 2 subspaces must pass through")
	}
}
