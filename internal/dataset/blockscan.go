package dataset

import (
	"context"
	"fmt"
	"os"
	"sync"
)

// Out-of-core block access. The PROCLUS paper's phases are deliberately
// single passes over disk-resident data (§3; its experiments ran
// against a SCSI drive), and CLIQUE's histogram and counting passes
// share that structure. One block reader, blockPass, serves every such
// pass: blocks of a fixed number of points are loaded and worked on by
// several goroutines at once, each with a read-ahead of one block,
// while the caller folds the blocks one at a time in point order.
// MemorySource and FileSource present that pass over an in-memory
// Dataset and a file, which is what lets the algorithms run
// identically against either (see core.PointSource).

// DefaultBlockPoints is the block granularity used when a caller passes
// a non-positive block size: 4096 points keeps blocks around a few
// hundred KiB for typical dimensionalities — large enough to amortize
// syscalls, small enough to stay cache- and memory-friendly.
const DefaultBlockPoints = 4096

// maxBlockBytes caps one block buffer's allocation regardless of the
// requested block size, so a header-declared dimensionality cannot
// drive a huge up-front allocation (found by FuzzBlockScanner). A
// file pass also caps its workers so that their buffers together never
// exceed two blocks of this size.
const maxBlockBytes = 64 << 20

// clampBlockPoints resolves a requested block size against the dataset
// shape: non-positive selects the default, the byte cap bounds the
// buffer, and a block never exceeds the dataset itself.
func clampBlockPoints(blockPoints, dims, n int) int {
	if blockPoints <= 0 {
		blockPoints = DefaultBlockPoints
	}
	if maxPts := maxBlockBytes / (8 * dims); blockPoints > maxPts {
		blockPoints = maxPts
	}
	if n > 0 && blockPoints > n {
		blockPoints = n
	}
	if blockPoints < 1 {
		blockPoints = 1
	}
	return blockPoints
}

// Block is one contiguous run of points from a dataset, the unit
// streamed passes consume. The backing data is owned by the pass (a
// file buffer or the dataset's storage) and valid only until the
// block's fold returns.
type Block struct {
	start int
	dims  int
	slot  int
	data  []float64 // row-major, len = Len()*dims
}

// Start returns the dataset index of the block's first point.
func (b *Block) Start() int { return b.start }

// Len returns the number of points in the block.
func (b *Block) Len() int { return len(b.data) / b.dims }

// Dims returns the dimensionality of the block's points.
func (b *Block) Dims() int { return b.dims }

// Slot returns the block's place in a pass on W workers: a value in
// [0, 2·W) that no other block holds from the start of this block's
// work until its fold returns, so per-block scratch indexed by slot
// carries a result from work to fold.
func (b *Block) Slot() int { return b.slot }

// Index returns the dataset index of the block's i-th point.
func (b *Block) Index(i int) int { return b.start + i }

// Point returns the block's i-th point as a view into the block buffer;
// callers must not retain it past the block's lifetime.
func (b *Block) Point(i int) []float64 {
	off := i * b.dims
	return b.data[off : off+b.dims : off+b.dims]
}

// Rows returns the block's points [lo, hi) as one row-major view into
// the block buffer, for kernels that walk a range of points without a
// call per point; callers must not retain it past the block's lifetime.
func (b *Block) Rows(lo, hi int) []float64 {
	return b.data[lo*b.dims : hi*b.dims : hi*b.dims]
}

// Bytes returns the encoded size of the block's data section, for byte
// accounting.
func (b *Block) Bytes() int64 { return int64(len(b.data)) * 8 }

// blockPass is the one block reader behind every Pass. It sweeps n
// points of the given dimensionality in blocks of bp points on up to
// workers goroutines. Worker w takes blocks w, w+W, … in turn, each into
// one of its own two slots: fill loads the block's count points at
// b.Start() into b, and work, when non-nil, runs on it. The calling
// goroutine folds the blocks in block order and hands each slot back
// to its worker after the fold, so a worker runs up to two blocks ahead
// of the fold, and at one worker the load still overlaps the fold.
//
// The first error in block order, from fill, work or fold, ends the
// pass, and so does a cancellation of a non-nil ctx, checked before
// every fold. Every worker has exited when blockPass returns: a worker
// waits only for a free slot, and ending the pass wakes it.
func blockPass(ctx context.Context, n, dims, bp, workers int,
	fill func(b *Block, count int) error, work, fold func(*Block) error) error {
	blocks := (n + bp - 1) / bp
	workers = max(1, min(workers, blocks))
	slots := make([]Block, 2*workers)
	errs := make([]error, 2*workers)
	ready := make([]chan int, workers) // worked slots, worker → fold
	free := make([]chan int, workers)  // folded slots, fold → worker
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Two slots per worker and room for both in each channel: no
		// send below ever blocks.
		ready[w], free[w] = make(chan int, 2), make(chan int, 2)
		for _, s := range []int{2 * w, 2*w + 1} {
			slots[s] = Block{dims: dims, slot: s}
			free[w] <- s
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < blocks; i += workers {
				var s int
				select {
				case s = <-free[w]:
				case <-stop:
					return
				}
				b := &slots[s]
				b.start = i * bp
				err := fill(b, min(bp, n-b.start))
				if err == nil && work != nil {
					err = work(b)
				}
				errs[s] = err
				ready[w] <- s
				if err != nil {
					return
				}
			}
		}(w)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	err := func() error {
		for i := 0; i < blocks; i++ {
			// Checked first, so that a cancelled context wins over a
			// block that is already waiting.
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			w := i % workers
			var s int
			select {
			case s = <-ready[w]:
			case <-done:
				return ctx.Err()
			}
			if errs[s] != nil {
				return errs[s]
			}
			if err := fold(&slots[s]); err != nil {
				return err
			}
			free[w] <- s
		}
		return nil
	}()
	close(stop)
	wg.Wait()
	return err
}

// verifyDeclaredSize cross-checks the header's declared payload against
// the file's actual size, so a header lying about n or dims fails here
// rather than mid-stream (or, worse, after a giant allocation). The
// arithmetic is carried in uint64: the header guards bound n·dims·8 at
// 2^63, which cannot overflow. Irregular files (pipes) skip the check;
// sized reports whether it ran and passed.
func verifyDeclaredSize(f *os.File, dims, n int, labeled bool) (sized bool, err error) {
	info, err := f.Stat()
	if err != nil || !info.Mode().IsRegular() {
		return false, nil
	}
	need := uint64(binaryHeaderSize) + uint64(n)*uint64(dims)*8
	if labeled {
		need += uint64(n) * 8
	}
	if size := uint64(info.Size()); size < need {
		return false, fmt.Errorf("dataset: %s declares %d×%d points (%d bytes) but holds only %d bytes",
			info.Name(), n, dims, need, size)
	}
	return true, nil
}

// MemorySource adapts an in-memory Dataset to block-pass consumption.
// Blocks are zero-copy views into the dataset's backing storage, so a
// pass over a MemorySource reads exactly the bytes a direct Dataset
// scan would.
type MemorySource struct {
	ds          *Dataset
	blockPoints int
}

// NewMemorySource wraps ds. blockPoints is the block granularity;
// non-positive selects DefaultBlockPoints. Smaller blocks exist mostly
// for equivalence testing — any block size yields identical pass
// results by construction.
func NewMemorySource(ds *Dataset, blockPoints int) *MemorySource {
	return &MemorySource{ds: ds,
		blockPoints: clampBlockPoints(blockPoints, ds.Dims(), ds.Len())}
}

// Len returns the number of points.
func (ms *MemorySource) Len() int { return ms.ds.Len() }

// BlockPoints returns the effective block granularity of the source's
// passes (requests are clamped at construction).
func (ms *MemorySource) BlockPoints() int { return ms.blockPoints }

// Dims returns the dimensionality of the points.
func (ms *MemorySource) Dims() int { return ms.ds.Dims() }

// Pass sweeps the dataset once in blocks of BlockPoints points, each a
// zero-copy view of the dataset's storage. work, when non-nil, runs on
// each block exactly once, on one of up to workers goroutines; fold
// then runs on each block on the calling goroutine, one block at a
// time in point order. A nil work makes the pass a serial sweep of
// fold. The first error in block order from work or fold, or a
// cancellation of a non-nil ctx, checked before every fold, ends the
// pass, and no goroutine outlives it.
func (ms *MemorySource) Pass(ctx context.Context, workers int, work, fold func(*Block) error) error {
	d := ms.ds.Dims()
	return blockPass(ctx, ms.ds.Len(), d, ms.blockPoints, workers, func(b *Block, count int) error {
		b.data = ms.ds.data[b.start*d : (b.start+count)*d]
		return nil
	}, work, fold)
}

// ReadPoints copies the points at the given indices into dst, row i
// holding point idx[i]. An index outside [0, Len()) is an error.
func (ms *MemorySource) ReadPoints(idx []int, dst []float64) error {
	d := ms.ds.Dims()
	if err := checkReadPoints(idx, dst, d, ms.ds.Len()); err != nil {
		return err
	}
	for i, p := range idx {
		copy(dst[i*d:(i+1)*d], ms.ds.Point(p))
	}
	return nil
}

// checkReadPoints validates a ReadPoints request against a source of n
// points of the given dimensionality before anything is read: dst must
// hold exactly one row per index, and every index must name a point.
func checkReadPoints(idx []int, dst []float64, dims, n int) error {
	if len(dst) != len(idx)*dims {
		return fmt.Errorf("dataset: reading %d points of %d dims into %d values", len(idx), dims, len(dst))
	}
	for _, p := range idx {
		if p < 0 || p >= n {
			return fmt.Errorf("dataset: point index %d outside [0, %d)", p, n)
		}
	}
	return nil
}

// FileSource adapts a binary dataset file to block-pass consumption:
// every pass opens the file afresh and re-checks its header, so one
// FileSource serves any number of passes while holding no file handle
// between them. It keeps the block buffers of its last pass for the
// next one. The header is read (and size-verified) once at open.
type FileSource struct {
	path        string
	blockPoints int
	dims        int
	n           int
	labeled     bool

	mu   sync.Mutex
	bufs [][]float64 // block buffers by slot, kept from one pass for the next
}

// OpenFileSource validates the binary dataset file at path and returns
// a source streaming it with the given block granularity (non-positive
// selects DefaultBlockPoints).
func OpenFileSource(path string, blockPoints int) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening %s: %w", path, err)
	}
	defer f.Close()
	dims, n, labeled, err := readBlockHeader(f)
	if err != nil {
		return nil, err
	}
	if _, err := verifyDeclaredSize(f, dims, n, labeled); err != nil {
		return nil, err
	}
	return &FileSource{path: path, dims: dims, n: n, labeled: labeled,
		blockPoints: clampBlockPoints(blockPoints, dims, n)}, nil
}

// Len returns the number of points the file declares.
func (fs *FileSource) Len() int { return fs.n }

// Dims returns the dimensionality of the points.
func (fs *FileSource) Dims() int { return fs.dims }

// Labeled reports whether the file carries ground-truth labels.
func (fs *FileSource) Labeled() bool { return fs.labeled }

// Path returns the underlying file path.
func (fs *FileSource) Path() string { return fs.path }

// BlockPoints returns the effective block granularity of the source's
// passes (requests are clamped at construction).
func (fs *FileSource) BlockPoints() int { return fs.blockPoints }

// Pass streams the file once in blocks of BlockPoints points. Up to
// workers goroutines each read whole blocks by position into two
// buffers of their own, and work, when non-nil, runs on each block
// exactly once on the goroutine that read it; fold then runs on each
// block on the calling goroutine, one block at a time in point order.
// A nil work makes the pass a serial sweep of fold, whose reads still
// run a block ahead of it. The workers are capped so that their
// buffers never exceed two blocks of maxBlockBytes, and the buffers
// are reused from the last pass. The header is
// re-read and size-checked first, so a file truncated or reshaped
// since OpenFileSource fails before any block is read; one cut short
// mid-pass fails at the short read. The first error in block order
// from a read, work or fold, or a cancellation of a non-nil ctx,
// checked before every fold, ends the pass, and no goroutine outlives
// it.
func (fs *FileSource) Pass(ctx context.Context, workers int, work, fold func(*Block) error) error {
	f, err := fs.open()
	if err != nil {
		return err
	}
	defer f.Close()
	d, bp := fs.dims, fs.blockPoints
	row := int64(d) * 8
	workers = fileWorkers(workers, bp, d)
	// The pass owns the buffers it takes, so a concurrent pass makes its
	// own; each slot's buffer is made on its first use and kept for the
	// next pass.
	fs.mu.Lock()
	bufs := fs.bufs
	fs.bufs = nil
	fs.mu.Unlock()
	if len(bufs) < 2*workers {
		bufs = append(bufs, make([][]float64, 2*workers-len(bufs))...)
	}
	defer func() {
		fs.mu.Lock()
		fs.bufs = bufs
		fs.mu.Unlock()
	}()
	return blockPass(ctx, fs.n, d, bp, workers, func(b *Block, count int) error {
		if bufs[b.slot] == nil {
			bufs[b.slot] = make([]float64, bp*d)
		}
		b.data = bufs[b.slot][:count*d]
		if err := readFloat64sAt(f, binaryHeaderSize+int64(b.start)*row, b.data); err != nil {
			return fmt.Errorf("dataset: reading block at point %d: %w", b.start, err)
		}
		return nil
	}, work, fold)
}

// fileWorkers caps a file pass's workers at the number whose two
// buffers of bp points each fit in two blocks of maxBlockBytes: a pass
// never holds more buffer memory than a serial pass over the largest
// block could.
func fileWorkers(workers, bp, dims int) int {
	return min(workers, max(1, maxBlockBytes/(bp*dims*8)))
}

// Blocks is the serial pass: fn sweeps the blocks in point order, as
// the fold of Pass at one worker with no work.
func (fs *FileSource) Blocks(ctx context.Context, fn func(*Block) error) error {
	return fs.Pass(ctx, 1, nil, fn)
}

// ReadPoints copies the points at the given indices into dst, row i
// holding point idx[i], with one positioned read per index: a sample of
// a few hundred points costs a few hundred small reads, not a pass.
// Like Pass it re-reads and size-checks the header, so a file
// truncated or reshaped since OpenFileSource fails here. An index
// outside [0, Len()) or a short read is an error.
func (fs *FileSource) ReadPoints(idx []int, dst []float64) error {
	f, err := fs.open()
	if err != nil {
		return err
	}
	defer f.Close()
	d := fs.dims
	if err := checkReadPoints(idx, dst, d, fs.n); err != nil {
		return err
	}
	row := int64(d) * 8
	for i, p := range idx {
		if err := readFloat64sAt(f, binaryHeaderSize+int64(p)*row, dst[i*d:(i+1)*d]); err != nil {
			return fmt.Errorf("dataset: reading point %d: %w", p, err)
		}
	}
	return nil
}

// open opens the file for one pass or read, re-reading and
// size-checking its header: a file whose header no longer declares the
// shape OpenFileSource read, or that no longer holds what it declares,
// is an error.
func (fs *FileSource) open() (*os.File, error) {
	f, err := os.Open(fs.path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening %s: %w", fs.path, err)
	}
	dims, n, labeled, err := readBlockHeader(f)
	if err == nil {
		_, err = verifyDeclaredSize(f, dims, n, labeled)
	}
	if err == nil && (dims != fs.dims || n != fs.n) {
		err = fmt.Errorf("dataset: %s changed shape mid-run (%d×%d, was %d×%d)",
			fs.path, n, dims, fs.n, fs.dims)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
