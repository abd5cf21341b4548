package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proclus/internal/randx"
)

func randomDataset(seed uint64, n, d int, labeled bool) *Dataset {
	r := randx.New(seed)
	ds := NewWithCapacity(d, n)
	for i := 0; i < n; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = r.Uniform(-1000, 1000)
		}
		if labeled {
			ds.AppendLabeled(p, r.Intn(5)-1)
		} else {
			ds.Append(p)
		}
	}
	return ds
}

func datasetsEqual(t *testing.T, a, b *Dataset) {
	t.Helper()
	if a.Len() != b.Len() || a.Dims() != b.Dims() || a.Labeled() != b.Labeled() {
		t.Fatalf("shape mismatch: (%d,%d,%v) vs (%d,%d,%v)",
			a.Len(), a.Dims(), a.Labeled(), b.Len(), b.Dims(), b.Labeled())
	}
	for i := 0; i < a.Len(); i++ {
		pa, pb := a.Point(i), b.Point(i)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("point %d dim %d: %v vs %v", i, j, pa[j], pb[j])
			}
		}
		if a.Label(i) != b.Label(i) {
			t.Fatalf("label %d: %d vs %d", i, a.Label(i), b.Label(i))
		}
	}
}

func TestCSVRoundTripLabeled(t *testing.T) {
	ds := randomDataset(1, 57, 4, true)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

func TestCSVRoundTripUnlabeled(t *testing.T) {
	ds := randomDataset(2, 23, 7, false)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

func TestCSVHeaderlessInput(t *testing.T) {
	in := "1.5,2.5\n3.5,4.5\n"
	ds, err := ReadCSV(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Point(0)[1] != 2.5 {
		t.Fatalf("headerless parse wrong: len=%d", ds.Len())
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []struct {
		name      string
		in        string
		hasLabels bool
	}{
		{"empty", "", false},
		{"header only", "dim0,dim1\n", false},
		{"bad number", "dim0\n1\nxyz\n", false},
		{"bad label", "dim0,label\n1,notanint\n", true},
		{"ragged", "1,2\n3\n", false},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in), c.hasLabels); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestBinaryRoundTripLabeled(t *testing.T) {
	ds := randomDataset(3, 101, 6, true)
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

func TestBinaryRoundTripUnlabeled(t *testing.T) {
	ds := randomDataset(4, 64, 3, false)
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

func TestBinaryPreservesExactFloats(t *testing.T) {
	ds := New(1)
	for _, v := range []float64{0, -0.0, 1e-308, math.MaxFloat64, math.Pi} {
		ds.Append([]float64{v})
	}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		if math.Float64bits(got.Point(i)[0]) != math.Float64bits(ds.Point(i)[0]) {
			t.Fatalf("float %d not bit-exact", i)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte{'P', 'C', 'D', 'S', 9, 0, 0, 0})); err == nil {
		t.Fatal("bad version accepted")
	}
	// Truncated data section.
	ds := randomDataset(5, 10, 2, false)
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-9]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestSaveLoadFileCSV(t *testing.T) {
	ds := randomDataset(6, 30, 3, true)
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

func TestSaveLoadFileBinary(t *testing.T) {
	ds := randomDataset(7, 30, 3, true)
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, false) // label flag ignored for binary
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.bin"), false); err == nil {
		t.Fatal("loading a missing file should error")
	}
}

// TestSwapFloat64sDecodesBigEndianView runs readFloat64s's big-endian
// branch on any host. A big-endian host that reads the little-endian
// file bytes of v into a float64 holds the value whose big-endian
// encoding those bytes are; swapFloat64s must turn that back into v,
// bit for bit.
func TestSwapFloat64sDecodesBigEndianView(t *testing.T) {
	want := []float64{0, math.Copysign(0, -1), 1, -2.5, math.Pi, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(-1), math.Float64frombits(0x7ff8000000000123)}
	got := make([]float64, len(want))
	var b [8]byte
	for i, v := range want {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		got[i] = math.Float64frombits(binary.BigEndian.Uint64(b[:]))
	}
	swapFloat64s(got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("value %d: got bits %#x, want %#x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestReadFloat64sShortInput(t *testing.T) {
	dst := make([]float64, 3)
	if err := readFloat64s(bytes.NewReader(make([]byte, 23)), dst); err == nil {
		t.Fatal("23 bytes read into 3 values without error")
	}
	if err := readFloat64s(bytes.NewReader(nil), nil); err != nil {
		t.Fatalf("empty read: %v", err)
	}
}

// TestReadBinaryGrowsInChunks reads a dataset larger than one read chunk
// through the unsized path, so the chunk boundaries are crossed.
func TestReadBinaryGrowsInChunks(t *testing.T) {
	ds := randomDataset(8, binaryChunk/3+7, 3, true)
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

func TestSaveAssignmentsGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "assign.csv")
	// A stale file at path is replaced whole.
	if err := os.WriteFile(path, []byte("stale contents that are longer than the new file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveAssignments(path, []int{0, -1, 2, 1, -1, 10}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "point,cluster\n0,0\n1,-1\n2,2\n3,1\n4,-1\n5,10\n"
	if string(got) != want {
		t.Fatalf("assignment CSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestSaveAssignmentsFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	// The rename over a directory fails after every row is written.
	blocked := filepath.Join(dir, "assign.csv")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveAssignments(blocked, []int{0, 1, -1}); err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	if info, err := os.Stat(blocked); err != nil || !info.IsDir() {
		t.Fatalf("path after failed write: %v, %v", info, err)
	}
	// The temp file cannot even be created in a missing directory.
	if err := SaveAssignments(filepath.Join(dir, "missing", "assign.csv"), []int{0}); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after failed writes, want only the blocking directory: %v", len(entries), entries)
	}
}
