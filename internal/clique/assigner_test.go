package clique

import (
	"testing"

	"proclus/internal/dataset"
	"proclus/internal/randx"
)

func assignerData(t *testing.T) *dataset.Dataset {
	t.Helper()
	r := randx.New(31)
	ds := dataset.New(6)
	blob(r, ds, 400, map[int]float64{0: 20, 1: 20}, 4)
	blob(r, ds, 400, map[int]float64{2: 70, 3: 70, 4: 70}, 4)
	blob(r, ds, 200, nil, 0) // uniform background
	return ds
}

func TestPointAssignerMatchesPartitionView(t *testing.T) {
	ds := assignerData(t)
	res, err := Run(ds, Config{Xi: 10, Tau: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GridMin) != ds.Dims() || len(res.GridMax) != ds.Dims() {
		t.Fatalf("grid bounds not recorded: min %d max %d values", len(res.GridMin), len(res.GridMax))
	}
	a, err := NewPointAssigner(res)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dims() != ds.Dims() {
		t.Fatalf("assigner dims %d != %d", a.Dims(), ds.Dims())
	}
	view := PartitionView(ds, res)
	covered := 0
	for p := 0; p < ds.Len(); p++ {
		got := a.Assign(ds.Point(p))
		if got != view[p] {
			t.Fatalf("point %d: Assign %d != PartitionView %d", p, got, view[p])
		}
		if got >= 0 {
			covered++
		}
	}
	if covered == 0 {
		t.Fatal("no point was covered; the comparison is vacuous")
	}
}

func TestPointAssignerRejectsShapeMismatch(t *testing.T) {
	ds := assignerData(t)
	res, err := Run(ds, Config{Xi: 10, Tau: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPointAssigner(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Assign([]float64{1, 2}); got != -1 {
		t.Fatalf("wrong-dimensionality point assigned to %d", got)
	}
	if _, err := NewPointAssigner(&Result{}); err == nil {
		t.Fatal("result without grid bounds accepted")
	}
}

func TestPointAssignerOutOfDomainClamps(t *testing.T) {
	// A point far outside the recorded bounds clamps into the boundary
	// intervals — the same rule the streamed counting passes apply — so
	// it must resolve without panicking, either to -1 or to a cluster
	// whose units sit on the boundary.
	ds := assignerData(t)
	res, err := Run(ds, Config{Xi: 10, Tau: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPointAssigner(res)
	if err != nil {
		t.Fatal(err)
	}
	far := make([]float64, ds.Dims())
	for j := range far {
		far[j] = -1e9
	}
	if got := a.Assign(far); got < -1 || got >= len(res.Clusters) {
		t.Fatalf("far-out corner point assigned out of range: %d", got)
	}
}

// TestPointAssignerAssignDoesNotAllocate pins Assign at zero
// allocations per call: the streamed assignment path calls it once per
// point.
func TestPointAssignerAssignDoesNotAllocate(t *testing.T) {
	ds := assignerData(t)
	res, err := Run(ds, Config{Xi: 10, Tau: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPointAssigner(res)
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Point(0)
	if allocs := testing.AllocsPerRun(100, func() { a.Assign(p) }); allocs != 0 {
		t.Fatalf("Assign made %v allocations per call, want 0", allocs)
	}
}
