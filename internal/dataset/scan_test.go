package dataset

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func writeTempBinary(t *testing.T, ds *Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScanStatsMatchesInMemory(t *testing.T) {
	ds := randomDataset(24, 500, 3, false)
	path := writeTempBinary(t, ds)
	n, stats, err := ScanStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("n = %d", n)
	}
	min, max := ds.Bounds()
	for j := 0; j < 3; j++ {
		if stats[j].Min != min[j] || stats[j].Max != max[j] {
			t.Fatalf("dim %d bounds: scan [%v %v], memory [%v %v]",
				j, stats[j].Min, stats[j].Max, min[j], max[j])
		}
		// Mean/std against direct computation.
		var sum float64
		for i := 0; i < ds.Len(); i++ {
			sum += ds.Point(i)[j]
		}
		mean := sum / 500
		if math.Abs(stats[j].Mean-mean) > 1e-9 {
			t.Fatalf("dim %d mean %v vs %v", j, stats[j].Mean, mean)
		}
		var ss float64
		for i := 0; i < ds.Len(); i++ {
			d := ds.Point(i)[j] - mean
			ss += d * d
		}
		sd := math.Sqrt(ss / 499)
		if math.Abs(stats[j].StdDev-sd) > 1e-9 {
			t.Fatalf("dim %d stddev %v vs %v", j, stats[j].StdDev, sd)
		}
	}
}

func TestScanLabelHistogram(t *testing.T) {
	ds := New(3)
	wantCounts := map[int]int{0: 5, 1: 7, -1: 3}
	for label, count := range wantCounts {
		for i := 0; i < count; i++ {
			ds.AppendLabeled([]float64{1, 2, 3}, label)
		}
	}
	path := writeTempBinary(t, ds)
	counts, err := ScanLabelHistogram(path)
	if err != nil {
		t.Fatal(err)
	}
	for label, want := range wantCounts {
		if counts[label] != want {
			t.Fatalf("label %d: got %d, want %d", label, counts[label], want)
		}
	}
}

func TestScanLabelHistogramUnlabeled(t *testing.T) {
	ds := randomDataset(31, 10, 2, false)
	path := writeTempBinary(t, ds)
	if _, err := ScanLabelHistogram(path); err == nil {
		t.Fatal("unlabeled file accepted")
	}
}

func TestScanStatsEmptyFile(t *testing.T) {
	// A header-only file with zero points must error cleanly.
	ds := New(2)
	path := filepath.Join(t.TempDir(), "empty.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := ScanStats(path); err == nil {
		t.Fatal("empty dataset accepted")
	}
}
