package dataset

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"proclus/internal/obs/obstest"
)

// settleGoroutines delegates to the shared observability test helper:
// no block reader may outlive its pass.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	obstest.Settle(t, base)
}

// passer is the block pass both sources offer.
type passer interface {
	Pass(ctx context.Context, workers int, work, fold func(*Block) error) error
}

// checkPass runs one pass of src on the given workers and checks the
// pass contract against ds: every block gets work exactly once and
// then its fold, the folds run in point order and deliver ds's exact
// bits, every slot lies in [0, 2·workers), and no two blocks hold one
// slot at once.
func checkPass(t *testing.T, ctx context.Context, src passer, ds *Dataset, workers int) {
	t.Helper()
	if err := passContract(ctx, src, ds, workers); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
}

// passContract is checkPass's check, returning the first breach.
func passContract(ctx context.Context, src passer, ds *Dataset, workers int) error {
	worked := make([]int, ds.Len()) // by block start; blocks never share one
	held := make([]int, 2*max(1, workers))
	slot := func(b *Block) (int, error) {
		if s := b.Slot(); s >= 0 && s < len(held) {
			return s, nil
		}
		return 0, fmt.Errorf("block at %d in slot %d, outside [0, %d)", b.Start(), b.Slot(), len(held))
	}
	work := func(b *Block) error {
		s, err := slot(b)
		if err != nil {
			return err
		}
		if held[s] != 0 {
			return fmt.Errorf("block at %d worked in slot %d, still held by the block at %d", b.Start(), s, held[s]-1)
		}
		held[s] = b.Start() + 1
		worked[b.Start()]++
		return nil
	}
	next := 0
	err := src.Pass(ctx, workers, work, func(b *Block) error {
		s, err := slot(b)
		if err != nil {
			return err
		}
		if b.Start() != next || b.Dims() != ds.Dims() {
			return fmt.Errorf("folded a %d-dim block at %d, want %d dims at %d", b.Dims(), b.Start(), ds.Dims(), next)
		}
		if worked[b.Start()] != 1 || held[s] != b.Start()+1 {
			return fmt.Errorf("block at %d folded after %d works, slot %d held by %d", b.Start(), worked[b.Start()], s, held[s]-1)
		}
		held[s] = 0
		for i := 0; i < b.Len(); i++ {
			p, want := b.Point(i), ds.Point(b.Index(i))
			for j := range p {
				if math.Float64bits(p[j]) != math.Float64bits(want[j]) {
					return fmt.Errorf("point %d dim %d: %v, want %v", b.Index(i), j, p[j], want[j])
				}
			}
		}
		next += b.Len()
		return nil
	})
	if err != nil {
		return err
	}
	if next != ds.Len() {
		return fmt.Errorf("folded %d points, want %d", next, ds.Len())
	}
	return nil
}

// TestBlockScannerStreamsAllPoints checks the file pass's contract at
// every block size and worker count, including more workers than
// blocks, and that no reader outlives a pass.
func TestBlockScannerStreamsAllPoints(t *testing.T) {
	ds := randomDataset(31, 137, 5, true)
	path := writeTempBinary(t, ds)
	for _, bp := range []int{1, 7, 64, 137, 1000, 0} {
		base := runtime.NumGoroutine()
		src, err := OpenFileSource(path, bp)
		if err != nil {
			t.Fatal(err)
		}
		if src.Dims() != 5 || src.Len() != 137 || !src.Labeled() {
			t.Fatalf("header: dims=%d len=%d labeled=%v", src.Dims(), src.Len(), src.Labeled())
		}
		for _, w := range []int{1, 2, 3, 7} {
			checkPass(t, context.Background(), src, ds, w)
		}
		settleGoroutines(t, base)
	}
}

func TestBlockScannerNilContext(t *testing.T) {
	ds := randomDataset(32, 10, 3, false)
	src, err := OpenFileSource(writeTempBinary(t, ds), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3} {
		checkPass(t, nil, src, ds, w)
	}
}

// TestBlockScannerTruncatedFile cuts the data section short at three
// moments: before OpenFileSource, which rejects the file by its
// declared size; between opening and a pass, which the pass's own size
// check rejects before it reads a block; and after the pass has folded
// its first block, when the workers' reads come up short. Each must be
// an error, at every worker count, with no reader left behind.
func TestBlockScannerTruncatedFile(t *testing.T) {
	ds := randomDataset(33, 50, 4, false)
	path := writeTempBinary(t, ds)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 8, 100, len(raw) - binaryHeaderSize - 1} {
		short := filepath.Join(t.TempDir(), "short.bin")
		if err := os.WriteFile(short, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFileSource(short, 16); err == nil {
			t.Fatalf("cut=%d: opened truncated file without error", cut)
		}
	}
	for _, w := range []int{1, 2, 7} {
		base := runtime.NumGoroutine()
		for _, midPass := range []bool{false, true} {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := OpenFileSource(path, 3)
			if err != nil {
				t.Fatal(err)
			}
			truncate := func() {
				if err := os.Truncate(path, binaryHeaderSize+3*4*8); err != nil {
					t.Error(err)
				}
			}
			if !midPass {
				truncate()
			}
			folded := 0
			err = src.Pass(context.Background(), w, nil, func(*Block) error {
				if folded++; folded == 1 && midPass {
					truncate()
				}
				return nil
			})
			if err == nil {
				t.Errorf("workers=%d midPass=%v: pass over a truncated file folded %d blocks without error", w, midPass, folded)
			}
		}
		settleGoroutines(t, base)
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
		if _, err := OpenFileSource(p, 16); err == nil {
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
	if _, err := OpenFileSource(filepath.Join(dir, "missing.bin"), 16); err == nil {
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
		if _, err := OpenFileSource(p, 16); err == nil {
			t.Errorf("%s: opened without error", name)
		}
	}
}

// TestBlockScannerCancellation cancels a file pass from its first fold
// and a memory pass from its second: the pass must fold no further
// block, return context.Canceled and leave no reader behind, at every
// worker count.
func TestBlockScannerCancellation(t *testing.T) {
	ds := randomDataset(35, 300, 4, false)
	fs, err := OpenFileSource(writeTempBinary(t, ds), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 7} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		folded := 0
		err := fs.Pass(ctx, w, func(*Block) error { return nil }, func(*Block) error {
			folded++
			cancel()
			return nil
		})
		if err != context.Canceled || folded != 1 {
			t.Fatalf("workers=%d: Pass = %v after %d folds, want context.Canceled after 1", w, err, folded)
		}
		settleGoroutines(t, base)
	}
}

// TestBlockScannerCloseMidStream ends a pass from a worker with most of
// the file unread: the work of the fifth block fails. Every earlier
// block is folded, no later one is, the pass returns that error, and no
// reader outlives it.
func TestBlockScannerCloseMidStream(t *testing.T) {
	ds := randomDataset(36, 500, 6, false)
	fs, err := OpenFileSource(writeTempBinary(t, ds), 8)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("work failed")
	for _, w := range []int{1, 2, 7} {
		base := runtime.NumGoroutine()
		folded := 0
		err := fs.Pass(context.Background(), w, func(b *Block) error {
			if b.Start() == 4*8 {
				return sentinel
			}
			return nil
		}, func(*Block) error {
			folded++
			return nil
		})
		if err != sentinel || folded != 4 {
			t.Fatalf("workers=%d: Pass = %v after %d folds, want the work error after 4", w, err, folded)
		}
		settleGoroutines(t, base)
	}
}

// TestBlockScannerClampsBlockSize checks the block and buffer caps: a
// block never exceeds maxBlockBytes, and a file pass runs no more
// workers than fit two blocks of that size.
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
	for _, c := range []struct{ workers, bp, dims, want int }{
		{8, 32, dims, 1}, // one block is the whole cap
		{8, 16, dims, 2}, // two half-cap blocks per worker
		{8, 4096, 4, 8},  // small blocks: every worker reads
		{1, 4096, 4, 1},  // one worker asked for
	} {
		if got := fileWorkers(c.workers, c.bp, c.dims); got != c.want {
			t.Errorf("fileWorkers(%d, %d, %d) = %d, want %d", c.workers, c.bp, c.dims, got, c.want)
		}
	}
}

func TestMemorySourceCoversDataset(t *testing.T) {
	ds := randomDataset(37, 101, 3, false)
	for _, bp := range []int{1, 10, 101, 500, 0} {
		src := NewMemorySource(ds, bp)
		if src.Len() != 101 || src.Dims() != 3 {
			t.Fatalf("shape %d×%d", src.Len(), src.Dims())
		}
		for _, w := range []int{1, 3} {
			checkPass(t, context.Background(), src, ds, w)
		}
	}
}

func TestMemorySourceCancellation(t *testing.T) {
	ds := randomDataset(38, 50, 2, false)
	src := NewMemorySource(ds, 5)
	for _, w := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := src.Pass(ctx, w, nil, func(b *Block) error {
			seen++
			if seen == 2 {
				cancel()
			}
			return nil
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: Pass after cancel: %v, want context.Canceled", w, err)
		}
		if seen != 2 {
			t.Fatalf("workers=%d: saw %d blocks after cancel, want 2", w, seen)
		}
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
		checkPass(t, context.Background(), src, ds, 2)
	}
	settleGoroutines(t, base)
}

// TestStreamPassReusesFileBuffers checks that a pass takes the block
// buffers the last pass left instead of allocating its own, and that
// passes running at once on one FileSource never share a buffer.
func TestStreamPassReusesFileBuffers(t *testing.T) {
	ds := randomDataset(45, 4000, 8, false)
	src, err := OpenFileSource(writeTempBinary(t, ds), 500)
	if err != nil {
		t.Fatal(err)
	}
	nop := func(*Block) error { return nil }
	if err := src.Pass(context.Background(), 2, nop, nop); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = src.Pass(context.Background(), 2, nop, nop)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const blockBytes = 500 * 8 * 8
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= blockBytes {
		t.Errorf("a repeated pass allocated %d bytes, at least one %d-byte block buffer", grown, blockBytes)
	}

	errs := make(chan error, 4)
	for i := 0; i < cap(errs); i++ {
		go func(workers int) { errs <- passContract(context.Background(), src, ds, workers) }(1 + i%3)
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent pass: %v", err)
		}
	}
}

func TestFileSourceCallbackError(t *testing.T) {
	ds := randomDataset(40, 60, 3, false)
	src, err := OpenFileSource(writeTempBinary(t, ds), 10)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	sentinel := os.ErrInvalid
	for _, w := range []int{1, 2} {
		if err := src.Pass(context.Background(), w, nil, func(*Block) error { return sentinel }); err != sentinel {
			t.Fatalf("workers=%d: Pass: %v, want sentinel", w, err)
		}
	}
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
	src, err := OpenFileSource(writeTempBinary(t, ds), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		checkPass(t, context.Background(), src, ds, w)
	}
}

// blockRows collects a source's points as one serial pass folds them,
// row-major.
func blockRows(t *testing.T, src passer) []float64 {
	t.Helper()
	var rows []float64
	err := src.Pass(context.Background(), 1, nil, func(b *Block) error {
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
// result is the point a pass delivers at idx[i], from memory and from a
// labeled file alike.
func TestReadPointsMatchesBlocks(t *testing.T) {
	const n, d = 97, 5
	ds := randomDataset(41, n, d, true)
	fs, err := OpenFileSource(writeTempBinary(t, ds), 16)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]interface {
		passer
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
