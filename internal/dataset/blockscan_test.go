package dataset

import (
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"proclus/internal/obs/obstest"
)

// settleGoroutines delegates to the shared observability test helper:
// the block reader must not outlive Close or a finished pass.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	obstest.Settle(t, base)
}

func drainBlocks(t *testing.T, ctx context.Context, sc *BlockScanner, ds *Dataset) {
	t.Helper()
	next := 0
	for {
		b, err := sc.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Start() != next {
			t.Fatalf("block starts at %d, want %d", b.Start(), next)
		}
		if b.Dims() != ds.Dims() {
			t.Fatalf("block dims %d, want %d", b.Dims(), ds.Dims())
		}
		for i := 0; i < b.Len(); i++ {
			idx := b.Index(i)
			p, want := b.Point(i), ds.Point(idx)
			for j := range p {
				if p[j] != want[j] {
					t.Fatalf("point %d dim %d: %v vs %v", idx, j, p[j], want[j])
				}
			}
		}
		next += b.Len()
	}
	if next != ds.Len() {
		t.Fatalf("streamed %d points, want %d", next, ds.Len())
	}
}

func TestBlockScannerStreamsAllPoints(t *testing.T) {
	ds := randomDataset(31, 137, 5, true)
	path := writeTempBinary(t, ds)
	for _, bp := range []int{1, 7, 64, 137, 1000, 0} {
		base := runtime.NumGoroutine()
		sc, err := OpenBlockScanner(path, bp)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Dims() != 5 || sc.Len() != 137 || !sc.Labeled() {
			t.Fatalf("header: dims=%d len=%d labeled=%v", sc.Dims(), sc.Len(), sc.Labeled())
		}
		drainBlocks(t, context.Background(), sc, ds)
		// Next after exhaustion keeps returning (nil, nil).
		if b, err := sc.Next(context.Background()); b != nil || err != nil {
			t.Fatalf("Next after exhaustion: %v, %v", b, err)
		}
		sc.Close()
		settleGoroutines(t, base)
	}
}

func TestBlockScannerNilContext(t *testing.T) {
	ds := randomDataset(32, 10, 3, false)
	sc, err := OpenBlockScanner(writeTempBinary(t, ds), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	drainBlocks(t, nil, sc, ds)
}

func TestBlockScannerTruncatedFile(t *testing.T) {
	ds := randomDataset(33, 50, 4, false)
	path := writeTempBinary(t, ds)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Any truncation of the data section is caught at open by the
	// declared-size check, before a single block is allocated.
	for _, cut := range []int{1, 8, 100, len(raw) - binaryHeaderSize - 1} {
		short := filepath.Join(t.TempDir(), "short.bin")
		if err := os.WriteFile(short, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenBlockScanner(short, 16); err == nil {
			t.Fatalf("cut=%d: opened truncated file without error", cut)
		}
	}
}

// headerLieFiles writes copies of a valid 5×3 binary file whose headers
// lie, keyed by the lie. Every reader must reject each of them without
// any allocation proportional to the lie.
func headerLieFiles(t *testing.T) map[string]string {
	t.Helper()
	ds := randomDataset(34, 5, 3, false)
	path := writeTempBinary(t, ds)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lie := func(mutate func([]byte)) string {
		b := append([]byte(nil), raw...)
		mutate(b)
		p := filepath.Join(t.TempDir(), "lie.bin")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return map[string]string{
		// Declares 2^39 points: must fail the size cross-check at open
		// instead of attempting any n-proportional work.
		"huge n": lie(func(b []byte) { binary.LittleEndian.PutUint64(b[12:], 1<<39) }),
		// Declares the dims limit: the block buffer is clamped by
		// maxBlockBytes, and the size check rejects the file first.
		"huge dims":   lie(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<20) }),
		"over dims":   lie(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<21) }),
		"over n":      lie(func(b []byte) { binary.LittleEndian.PutUint64(b[12:], 1<<41) }),
		"zero dims":   lie(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) }),
		"bad magic":   lie(func(b []byte) { b[0] = 'X' }),
		"bad version": lie(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) }),
	}
}

func TestBlockScannerHeaderLies(t *testing.T) {
	for name, p := range headerLieFiles(t) {
		if sc, err := OpenBlockScanner(p, 16); err == nil {
			sc.Close()
			t.Errorf("%s: opened without error", name)
		}
	}
}

// TestLoadFileHeaderLies runs the header-lie table and a truncated file
// through LoadFile, which allocates the data section at its declared
// size: the size check must reject every lie before that allocation.
func TestLoadFileHeaderLies(t *testing.T) {
	files := headerLieFiles(t)
	raw, err := os.ReadFile(writeTempBinary(t, randomDataset(43, 50, 4, true)))
	if err != nil {
		t.Fatal(err)
	}
	files["truncated"] = filepath.Join(t.TempDir(), "short.bin")
	if err := os.WriteFile(files["truncated"], raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	for name, p := range files {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := LoadFile(p, false)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: loaded without error", name)
		}
		// The huge-n file declares 2^39×3 values (12 TiB); a rejected
		// file may cost an open and a header read, nothing near that.
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
			t.Errorf("%s: LoadFile allocated %d bytes before failing", name, delta)
		}
	}
}

func TestBlockScannerRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenBlockScanner(filepath.Join(dir, "missing.bin"), 16); err == nil {
		t.Fatal("missing file accepted")
	}
	raw, err := os.ReadFile(writeTempBinary(t, randomDataset(44, 3, 2, false)))
	if err != nil {
		t.Fatal(err)
	}
	// Garbage shorter than a header, a header cut short, and a bare
	// magic: each must fail at open.
	for name, content := range map[string][]byte{
		"garbage":    []byte("garbage!"),
		"cut header": raw[:binaryHeaderSize-1],
		"magic only": raw[:4],
		"empty":      nil,
	} {
		p := filepath.Join(dir, "bad.bin")
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if sc, err := OpenBlockScanner(p, 16); err == nil {
			sc.Close()
			t.Errorf("%s: opened without error", name)
		}
	}
}

func TestBlockScannerCancellation(t *testing.T) {
	ds := randomDataset(35, 300, 4, false)
	path := writeTempBinary(t, ds)
	base := runtime.NumGoroutine()
	sc, err := OpenBlockScanner(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := sc.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := sc.Next(ctx); err != context.Canceled {
		t.Fatalf("Next after cancel: %v, want context.Canceled", err)
	}
	sc.Close()
	settleGoroutines(t, base)
}

func TestBlockScannerCloseMidStream(t *testing.T) {
	ds := randomDataset(36, 500, 6, false)
	path := writeTempBinary(t, ds)
	base := runtime.NumGoroutine()
	sc, err := OpenBlockScanner(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Close with most of the file unread, twice (idempotent), then
	// confirm the reader goroutine is gone.
	sc.Close()
	sc.Close()
	settleGoroutines(t, base)
}

func TestBlockScannerClampsBlockSize(t *testing.T) {
	// 1<<18 dims × 8 bytes = 2 MiB per point: the 64 MiB cap allows at
	// most 32 points per block, whatever the caller asks for.
	dims := 1 << 18
	if got := clampBlockPoints(4096, dims, 1<<30); got != 32 {
		t.Fatalf("clamp(4096, %d): %d, want 32", dims, got)
	}
	if got := clampBlockPoints(0, 4, 10); got != 10 {
		t.Fatalf("clamp(0, 4, 10): %d, want 10", got)
	}
	if got := clampBlockPoints(0, 4, 1<<30); got != DefaultBlockPoints {
		t.Fatalf("clamp default: %d, want %d", got, DefaultBlockPoints)
	}
	if got := clampBlockPoints(7, 4, 0); got != 7 {
		t.Fatalf("clamp(7, 4, 0): %d, want 7", got)
	}
}

func TestMemorySourceCoversDataset(t *testing.T) {
	ds := randomDataset(37, 101, 3, false)
	for _, bp := range []int{1, 10, 101, 500, 0} {
		src := NewMemorySource(ds, bp)
		if src.Len() != 101 || src.Dims() != 3 {
			t.Fatalf("shape %d×%d", src.Len(), src.Dims())
		}
		next := 0
		err := src.Blocks(context.Background(), func(b *Block) error {
			if b.Start() != next {
				t.Fatalf("block starts at %d, want %d", b.Start(), next)
			}
			for i := 0; i < b.Len(); i++ {
				p, want := b.Point(i), ds.Point(b.Index(i))
				for j := range p {
					if p[j] != want[j] {
						t.Fatalf("point %d mismatch", b.Index(i))
					}
				}
			}
			next += b.Len()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != 101 {
			t.Fatalf("covered %d points, want 101", next)
		}
	}
}

func TestMemorySourceCancellation(t *testing.T) {
	ds := randomDataset(38, 50, 2, false)
	src := NewMemorySource(ds, 5)
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err := src.Blocks(ctx, func(b *Block) error {
		seen++
		if seen == 2 {
			cancel()
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("Blocks after cancel: %v, want context.Canceled", err)
	}
	if seen != 2 {
		t.Fatalf("saw %d blocks after cancel, want 2", seen)
	}
}

func TestFileSourceRepeatedPasses(t *testing.T) {
	ds := randomDataset(39, 90, 4, true)
	path := writeTempBinary(t, ds)
	base := runtime.NumGoroutine()
	src, err := OpenFileSource(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 90 || src.Dims() != 4 || !src.Labeled() {
		t.Fatalf("shape %d×%d labeled=%v", src.Len(), src.Dims(), src.Labeled())
	}
	for pass := 0; pass < 3; pass++ {
		total := 0
		err := src.Blocks(context.Background(), func(b *Block) error {
			for i := 0; i < b.Len(); i++ {
				p, want := b.Point(i), ds.Point(b.Index(i))
				for j := range p {
					if p[j] != want[j] {
						t.Fatalf("pass %d point %d mismatch", pass, b.Index(i))
					}
				}
			}
			total += b.Len()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if total != 90 {
			t.Fatalf("pass %d covered %d points", pass, total)
		}
	}
	settleGoroutines(t, base)
}

func TestFileSourceCallbackError(t *testing.T) {
	ds := randomDataset(40, 60, 3, false)
	src, err := OpenFileSource(writeTempBinary(t, ds), 10)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	sentinel := os.ErrInvalid
	if err := src.Blocks(context.Background(), func(*Block) error { return sentinel }); err != sentinel {
		t.Fatalf("Blocks: %v, want sentinel", err)
	}
	settleGoroutines(t, base)
}

func TestFromFlat(t *testing.T) {
	flat := []float64{1, 2, 3, 4, 5, 6}
	ds, err := FromFlat(3, flat)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Dims() != 3 || ds.Labeled() {
		t.Fatalf("shape %d×%d labeled=%v", ds.Len(), ds.Dims(), ds.Labeled())
	}
	if p := ds.Point(1); p[0] != 4 || p[2] != 6 {
		t.Fatalf("point 1 = %v", p)
	}
	if _, err := FromFlat(0, flat); err == nil {
		t.Fatal("FromFlat accepted zero dims")
	}
	if _, err := FromFlat(4, flat); err == nil {
		t.Fatal("FromFlat accepted ragged backing")
	}
}

func TestScanLabels(t *testing.T) {
	ds := randomDataset(41, 77, 3, true)
	path := writeTempBinary(t, ds)
	labels, err := ScanLabels(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 77 {
		t.Fatalf("got %d labels, want 77", len(labels))
	}
	for i, l := range labels {
		if l != ds.Label(i) {
			t.Fatalf("label %d: %d vs %d", i, l, ds.Label(i))
		}
	}
	unlabeled := writeTempBinary(t, randomDataset(42, 5, 2, false))
	if _, err := ScanLabels(unlabeled); err == nil {
		t.Fatal("ScanLabels accepted unlabeled file")
	}
}

func TestBlockScannerExactFloats(t *testing.T) {
	ds := New(2)
	ds.Append([]float64{math.SmallestNonzeroFloat64, -0.0})
	ds.Append([]float64{math.MaxFloat64, 1e-308})
	path := writeTempBinary(t, ds)
	sc, err := OpenBlockScanner(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	drainBlocks(t, context.Background(), sc, ds)
}

// blockRows collects a source's points as one Blocks pass delivers
// them, row-major.
func blockRows(t *testing.T, src interface {
	Blocks(context.Context, func(*Block) error) error
}) []float64 {
	t.Helper()
	var rows []float64
	err := src.Blocks(context.Background(), func(b *Block) error {
		rows = append(rows, b.Rows(0, b.Len())...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestReadPointsMatchesBlocks checks the read by position against a
// block pass: for any index list, shuffled or repeated, row i of the
// result is the point a Blocks pass delivers at idx[i], from memory and
// from a labeled file alike.
func TestReadPointsMatchesBlocks(t *testing.T) {
	const n, d = 97, 5
	ds := randomDataset(41, n, d, true)
	fs, err := OpenFileSource(writeTempBinary(t, ds), 16)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]interface {
		Blocks(context.Context, func(*Block) error) error
		ReadPoints([]int, []float64) error
	}{
		"memory": NewMemorySource(ds, 16),
		"file":   fs,
	}
	cases := map[string][]int{
		"none":     {},
		"first":    {0},
		"last":     {n - 1},
		"shuffled": {60, 3, 96, 17, 0, 42, 81},
		"repeated": {5, 5, 90, 5, 90},
	}
	for sname, src := range sources {
		want := blockRows(t, src)
		for cname, idx := range cases {
			got := make([]float64, len(idx)*d)
			if err := src.ReadPoints(idx, got); err != nil {
				t.Fatalf("%s/%s: %v", sname, cname, err)
			}
			for i, p := range idx {
				for j := 0; j < d; j++ {
					if got[i*d+j] != want[p*d+j] {
						t.Fatalf("%s/%s: row %d (point %d) dim %d = %v, want %v",
							sname, cname, i, p, j, got[i*d+j], want[p*d+j])
					}
				}
			}
		}
	}
}

// TestReadPointsErrors checks that a bad request, and a file truncated
// or reshaped after OpenFileSource, each fail with an error rather than
// a panic or stale data.
func TestReadPointsErrors(t *testing.T) {
	const n, d = 40, 3
	ds := randomDataset(43, n, d, false)
	path := writeTempBinary(t, ds)
	fs, err := OpenFileSource(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]interface {
		ReadPoints([]int, []float64) error
	}{"memory": NewMemorySource(ds, 8), "file": fs} {
		for _, idx := range [][]int{{-1}, {n}, {2, n + 5}} {
			if err := src.ReadPoints(idx, make([]float64, len(idx)*d)); err == nil {
				t.Errorf("%s: index list %v read without error", name, idx)
			}
		}
		if err := src.ReadPoints([]int{1, 2}, make([]float64, d)); err == nil {
			t.Errorf("%s: a one-row buffer accepted two points", name)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadPoints([]int{0}, make([]float64, d)); err == nil {
		t.Error("read from a file truncated after open without error")
	}
	reshaped := randomDataset(44, n, d+1, false)
	if err := reshaped.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadPoints([]int{0}, make([]float64, d)); err == nil {
		t.Error("read from a file reshaped after open without error")
	}
}
