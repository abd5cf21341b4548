package dataset

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func benchDataset(b *testing.B, n, d int) *Dataset {
	b.Helper()
	ds := randomDataset(1, n, d, true)
	return ds
}

func BenchmarkWriteBinary(b *testing.B) {
	ds := benchDataset(b, 10000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ds.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	ds := benchDataset(b, 10000, 20)
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	ds := benchDataset(b, 10000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCSV(b *testing.B) {
	ds := benchDataset(b, 10000, 20)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(raw), true); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFile writes the 10k×20 labeled bench dataset to a binary file and
// returns its path and size.
func benchFile(b *testing.B) (string, int64) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.bin")
	if err := benchDataset(b, 10000, 20).SaveFile(path); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return path, info.Size()
}

func BenchmarkLoadFile(b *testing.B) {
	path, size := benchFile(b)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadFile(path, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileSourcePass times one no-op block pass over the file, the
// floor under every streamed pass, with the reads on one worker and on
// two.
func BenchmarkFileSourcePass(b *testing.B) {
	path, size := benchFile(b)
	src, err := OpenFileSource(path, 0)
	if err != nil {
		b.Fatal(err)
	}
	nop := func(*Block) error { return nil }
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				if err := src.Pass(context.Background(), workers, nop, nop); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriteAssignments(b *testing.B) {
	assignments := benchDataset(b, 10000, 20).Labels()
	path := filepath.Join(b.TempDir(), "assign.csv")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SaveAssignments(path, assignments); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointAccess(b *testing.B) {
	ds := benchDataset(b, 10000, 20)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		ds.Each(func(_ int, p []float64) {
			sink += p[0]
		})
	}
	_ = sink
}
