package dataset

// Fuzz targets for the file parsers. Without -fuzz these run their seed
// corpus as ordinary tests; with `go test -fuzz=FuzzReadCSV ./internal/dataset`
// they explore adversarial inputs. The invariant under test: parsers
// must return an error or a valid dataset — never panic, never produce
// a dataset that fails Validate.

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func FuzzReadCSV(f *testing.F) {
	f.Add("dim0,dim1\n1,2\n3,4\n", true)
	f.Add("1,2,0\n3,4,-1\n", true)
	f.Add("1.5e308,2\n", false)
	f.Add("", false)
	f.Add("dim0\nnan\n", false)
	f.Add("a,b,c\n1,2\n", true)
	f.Add("1,2\n3\n", false)
	f.Fuzz(func(t *testing.T, input string, hasLabels bool) {
		ds, err := ReadCSV(strings.NewReader(input), hasLabels)
		if err != nil {
			return
		}
		if ds == nil {
			t.Fatal("nil dataset without error")
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("parser produced invalid dataset: %v", err)
		}
		if ds.Len() == 0 {
			t.Fatal("parser produced empty dataset without error")
		}
	})
}

// refDecode is FuzzBlockScanner's oracle: a straight-line decoder of the
// binary format that shares no code with the package's readers. It
// returns the declared dimensionality and the data section decoded one
// value at a time, and ok=false unless the header is well formed and the
// file holds every byte it declares, labels included.
func refDecode(input []byte) (dims int, data []float64, ok bool) {
	if len(input) < 21 || string(input[:4]) != "PCDS" || binary.LittleEndian.Uint32(input[4:]) != 1 {
		return 0, nil, false
	}
	d := uint64(binary.LittleEndian.Uint32(input[8:]))
	n := binary.LittleEndian.Uint64(input[12:])
	perPoint := 8 * d
	if input[20] == 1 {
		perPoint += 8 // one int64 label per point
	}
	if d == 0 || n > uint64(len(input)-21)/perPoint {
		return 0, nil, false
	}
	body := input[21:]
	data = make([]float64, n*d)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return int(d), data, true
}

// FuzzBlockScanner feeds arbitrary bytes to the out-of-core block
// reader as a file and differentially checks it against refDecode:
// whenever OpenFileSource opens the file, the oracle must accept it too
// and a pass, serial or on three workers, must fold the identical bits
// in point order; and the pass must never panic or fold more points
// than the header declares, no matter how the header lies
// (truncations, corrupt magic/version, inflated n or dims).
func FuzzBlockScanner(f *testing.F) {
	ds := New(3)
	ds.AppendLabeled([]float64{1, 2, 3}, 0)
	ds.AppendLabeled([]float64{4, 5, 6}, -1)
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, 1)
	f.Add(valid, 4096)
	f.Add(valid[:len(valid)-5], 2)
	f.Add(valid[:binaryHeaderSize], 2)
	f.Add([]byte("PCDS"), 1)
	f.Add([]byte{}, 0)
	corruptDims := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(corruptDims[8:], 1<<19) // header lies: huge dims
	f.Add(corruptDims, 64)
	corruptN := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(corruptN[12:], 1<<39) // header lies: huge n
	f.Add(corruptN, 64)
	badVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badVersion[4:], 7)
	f.Add(badVersion, 16)
	f.Fuzz(func(t *testing.T, input []byte, blockPoints int) {
		path := filepath.Join(t.TempDir(), "fuzz.bin")
		if err := os.WriteFile(path, input, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenFileSource(path, blockPoints)
		if err != nil {
			return
		}
		dims, want, ok := refDecode(input)
		if !ok || dims != src.Dims() || len(want) != src.Len()*dims {
			t.Fatalf("source opened a %d×%d file the oracle reads as ok=%v, %d values of %d dims",
				src.Len(), src.Dims(), ok, len(want), dims)
		}
		for _, workers := range []int{1, 3} {
			streamed := 0
			err := src.Pass(context.Background(), workers, nil, func(b *Block) error {
				if b.Start() != streamed {
					t.Fatalf("workers=%d: block at %d folded after %d points", workers, b.Start(), streamed)
				}
				for i := 0; i < b.Len(); i++ {
					p, w := b.Point(i), want[b.Index(i)*dims:]
					for j := range p {
						if math.Float64bits(p[j]) != math.Float64bits(w[j]) {
							t.Fatalf("point %d dim %d: %v vs oracle %v", b.Index(i), j, p[j], w[j])
						}
					}
				}
				streamed += b.Len()
				return nil
			})
			if err != nil {
				return
			}
			if streamed != src.Len() {
				t.Fatalf("workers=%d: streamed %d points, header declares %d", workers, streamed, src.Len())
			}
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	// Seed with a genuine file plus corruptions of it.
	ds := New(3)
	ds.AppendLabeled([]float64{1, 2, 3}, 0)
	ds.AppendLabeled([]float64{4, 5, 6}, -1)
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte("PCDS"))
	f.Add([]byte{})
	corrupted := append([]byte(nil), valid...)
	corrupted[9] = 0xff // mangle dims
	f.Add(corrupted)
	f.Fuzz(func(t *testing.T, input []byte) {
		got, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		if got == nil {
			t.Fatal("nil dataset without error")
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("parser produced invalid dataset: %v", err)
		}
	})
}
