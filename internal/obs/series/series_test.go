package series

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestSeriesAppendAndSnapshot(t *testing.T) {
	st := NewStore(4)
	s := st.Series("obj", "objective per iteration")
	for i := 1; i <= 3; i++ {
		s.Append(float64(i), float64(10-i))
	}
	snap := st.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d series, want 1", len(snap))
	}
	got := snap[0]
	want := SeriesSnapshot{
		Name: "obj", Help: "objective per iteration", Capacity: 4, Total: 3,
		Points: []Point{{1, 9}, {2, 8}, {3, 7}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot = %+v, want %+v", got, want)
	}
	if last, ok := got.Last(); !ok || last != (Point{3, 7}) {
		t.Errorf("Last() = %+v, %v", last, ok)
	}
}

func TestSeriesRingEviction(t *testing.T) {
	st := NewStore(3)
	s := st.Series("obj", "")
	for i := 1; i <= 7; i++ {
		s.Append(float64(i), float64(i)*2)
	}
	snap := st.Snapshot()[0]
	if snap.Total != 7 {
		t.Errorf("Total = %d, want 7", snap.Total)
	}
	want := []Point{{5, 10}, {6, 12}, {7, 14}}
	if !reflect.DeepEqual(snap.Points, want) {
		t.Errorf("points = %+v, want %+v (oldest evicted, oldest-first order)", snap.Points, want)
	}
}

func TestSeriesGetOrCreate(t *testing.T) {
	st := NewStore(8)
	a := st.Series("s", "", L("restart", "1"), L("pass", "assign"))
	b := st.Series("s", "", L("pass", "assign"), L("restart", "1"))
	if a != b {
		t.Error("label order should not distinguish series")
	}
	c := st.Series("s", "", L("restart", "2"))
	if a == c {
		t.Error("different labels must yield different series")
	}
}

// TestSeriesZeroSteadyStateAllocs proves the hot path allocates only on
// the very first append of a series lifetime.
func TestSeriesZeroSteadyStateAllocs(t *testing.T) {
	st := NewStore(16)
	s := st.Series("obj", "")
	s.Append(0, 0) // one-time ring allocation
	allocs := testing.AllocsPerRun(1000, func() {
		s.Append(1, 2)
	})
	if allocs != 0 {
		t.Errorf("steady-state Append allocates %.1f times per call, want 0", allocs)
	}
}

func TestStoreSnapshotSorted(t *testing.T) {
	st := NewStore(4)
	st.Series("z_last", "").Append(0, 1)
	st.Series("a_first", "", L("restart", "2")).Append(0, 1)
	st.Series("a_first", "", L("restart", "1")).Append(0, 1)
	snap := st.Snapshot()
	var order []string
	for _, s := range snap {
		key := s.Name
		for _, l := range s.Labels {
			key += "/" + l.Value
		}
		order = append(order, key)
	}
	want := []string{"a_first/1", "a_first/2", "z_last"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("snapshot order = %v, want %v", order, want)
	}
}

func TestStoreFind(t *testing.T) {
	st := NewStore(4)
	st.Series("obj", "", L("restart", "1")).Append(1, 5)
	st.Series("obj", "", L("restart", "2")).Append(1, 6)
	snap := st.Snapshot()
	if got := snap.Find("obj", L("restart", "2")); got == nil || got.Points[0].V != 6 {
		t.Errorf("Find with labels = %+v", got)
	}
	if got := snap.Find("obj"); got == nil {
		t.Error("Find without labels should match any labeled series of the name")
	}
	if got := snap.Find("nope"); got != nil {
		t.Errorf("Find(nope) = %+v, want nil", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	st := NewStore(4)
	st.Series("obj", "objective", L("restart", "1")).Append(1, 2.5)
	st.Series("rate", "").Append(3, 4)
	snap := st.Snapshot()

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("round trip changed snapshot:\n got %+v\nwant %+v", back, snap)
	}
}

func TestSnapshotWriteReadFile(t *testing.T) {
	st := NewStore(4)
	st.Series("obj", "").Append(1, 2)
	path := t.TempDir() + "/series.json"
	if err := st.Snapshot().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Points[0] != (Point{1, 2}) {
		t.Errorf("file round trip = %+v", back)
	}
}

func TestNilSafety(t *testing.T) {
	var st *Store
	s := st.Series("x", "")
	if s != nil {
		t.Error("nil store should hand out nil series")
	}
	s.Append(1, 2) // must not panic
	if snap := st.Snapshot(); snap != nil {
		t.Errorf("nil store snapshot = %+v, want nil", snap)
	}
}

func TestSeriesConcurrentAppend(t *testing.T) {
	st := NewStore(64)
	s := st.Series("obj", "")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Append(float64(i), float64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			st.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := st.Snapshot()[0]
	if snap.Total != 400 || len(snap.Points) != 64 {
		t.Errorf("Total = %d, retained = %d; want 400, 64", snap.Total, len(snap.Points))
	}
}

// TestSnapshotDeterministic guards the byte-stability contract:
// identical append sequences must serialize identically.
func TestSnapshotDeterministic(t *testing.T) {
	build := func() []byte {
		st := NewStore(8)
		for r := 1; r <= 2; r++ {
			s := st.Series("obj", "h", L("restart", string(rune('0'+r))))
			for i := 1; i <= 5; i++ {
				s.Append(float64(i), float64(r*i))
			}
		}
		data, err := json.Marshal(st.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Errorf("snapshots differ:\n%s\n%s", a, b)
	}
}
