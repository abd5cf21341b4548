package dataset

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
)

// Out-of-core block access. The PROCLUS paper's phases are deliberately
// single passes over disk-resident data (§3; its experiments ran
// against a SCSI drive), and CLIQUE's histogram and counting passes
// share that structure. BlockScanner streams a binary dataset file in
// contiguous multi-point blocks with one block of read-ahead, so a pass
// holds at most two blocks resident while the reader goroutine overlaps
// reading with the consumer's work. MemorySource and FileSource
// present the same block-pass shape over an in-memory Dataset and a
// file, which is what lets the algorithms run identically against
// either (see core.PointSource).

// DefaultBlockPoints is the block granularity used when a caller passes
// a non-positive block size: 4096 points keeps blocks around a few
// hundred KiB for typical dimensionalities — large enough to amortize
// syscalls, small enough to stay cache- and memory-friendly.
const DefaultBlockPoints = 4096

// maxBlockBytes caps one block buffer's allocation regardless of the
// requested block size, so a header-declared dimensionality cannot
// drive a huge up-front allocation (found by FuzzBlockScanner).
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
// streamed passes consume. The backing data is owned by the producer
// (scanner buffer or dataset storage) and valid only until the next
// block is requested.
type Block struct {
	start int
	dims  int
	data  []float64 // row-major, len = Len()*dims
}

// Start returns the dataset index of the block's first point.
func (b *Block) Start() int { return b.start }

// Len returns the number of points in the block.
func (b *Block) Len() int { return len(b.data) / b.dims }

// Dims returns the dimensionality of the block's points.
func (b *Block) Dims() int { return b.dims }

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

// BlockScanner streams the data section of a binary dataset file (the
// format of Dataset.WriteBinary) block by block. A reader goroutine
// reads one block ahead of the consumer (double buffering), so I/O and
// consumption overlap; total resident buffering is two blocks. Each
// block is read from the file straight into its buffer (readFloat64s):
// one copy from the page cache, no staging buffer.
//
//	sc, err := dataset.OpenBlockScanner(path, 4096)
//	...
//	defer sc.Close()
//	for {
//		b, err := sc.Next(ctx)
//		if err != nil { ... }
//		if b == nil { break } // end of data
//		...
//	}
//
// The scanner is single-consumer: Next and Close must not be called
// concurrently, and a Block is valid only until the following Next or
// Close call.
type BlockScanner struct {
	dims        int
	n           int
	blockPoints int
	labeled     bool

	blocks chan *Block   // filled blocks, reader → consumer
	free   chan *Block   // recycled buffers, consumer → reader
	stop   chan struct{} // closed by Close to abort the reader
	done   chan struct{} // closed when the reader has exited

	cur       *Block
	err       error // reader's terminal error; read only after blocks closes
	closeOnce sync.Once
}

// OpenBlockScanner opens a binary dataset file for block streaming with
// the given block granularity (points per block; non-positive selects
// DefaultBlockPoints). The header is validated against the file's
// actual size before any data buffer is allocated, so a corrupted or
// adversarial header fails fast instead of demanding memory or reading
// garbage.
func OpenBlockScanner(path string, blockPoints int) (*BlockScanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening %s: %w", path, err)
	}
	dims, n, labeled, err := readBlockHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := verifyDeclaredSize(f, dims, n, labeled); err != nil {
		f.Close()
		return nil, err
	}
	bp := clampBlockPoints(blockPoints, dims, n)
	s := &BlockScanner{
		dims:        dims,
		n:           n,
		blockPoints: bp,
		labeled:     labeled,
		blocks:      make(chan *Block),
		free:        make(chan *Block, 2),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	// Two buffers total: the consumer works on one while the reader
	// fills the next.
	for i := 0; i < 2; i++ {
		s.free <- &Block{dims: dims, data: make([]float64, bp*dims)}
	}
	go s.read(f)
	return s, nil
}

// read is the reader goroutine: it fills recycled buffers from f, which
// is positioned just past the header, and hands them to the consumer
// until the data section ends, an error occurs, or Close aborts it.
// s.err is published before blocks closes, so the consumer observes it
// after the channel-closed signal.
func (s *BlockScanner) read(f *os.File) {
	defer close(s.done)
	defer close(s.blocks)
	defer f.Close()
	for idx := 0; idx < s.n; {
		var buf *Block
		select {
		case buf = <-s.free:
		case <-s.stop:
			return
		}
		count := s.blockPoints
		if rest := s.n - idx; count > rest {
			count = rest
		}
		buf.start = idx
		buf.data = buf.data[:count*s.dims]
		if err := readFloat64s(f, buf.data); err != nil {
			s.err = fmt.Errorf("dataset: reading block at point %d: %w", idx, err)
			return
		}
		select {
		case s.blocks <- buf:
		case <-s.stop:
			return
		}
		idx += count
	}
}

// Next returns the next block, or (nil, nil) at the end of the data
// section. The previous block's buffer is recycled, so it must not be
// used after this call. A non-nil ctx aborts the wait when cancelled;
// the scanner itself stays usable until Close.
func (s *BlockScanner) Next(ctx context.Context) (*Block, error) {
	if s.cur != nil {
		// Never blocks: only two buffers exist and the consumer holds at
		// most this one.
		s.free <- s.cur
		s.cur = nil
	}
	var cancel <-chan struct{}
	if ctx != nil {
		// Checked first so an already-cancelled context wins even when a
		// decoded block is simultaneously ready.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		cancel = ctx.Done()
	}
	select {
	case b, ok := <-s.blocks:
		if !ok {
			return nil, s.err
		}
		s.cur = b
		return b, nil
	case <-cancel:
		return nil, ctx.Err()
	}
}

// Dims returns the dimensionality of the streamed points.
func (s *BlockScanner) Dims() int { return s.dims }

// Len returns the number of points the file header declares.
func (s *BlockScanner) Len() int { return s.n }

// Labeled reports whether the file carries ground-truth labels (stored
// after the data section; see ScanLabels).
func (s *BlockScanner) Labeled() bool { return s.labeled }

// BlockPoints returns the effective block granularity after clamping.
func (s *BlockScanner) BlockPoints() int { return s.blockPoints }

// Close aborts the reader goroutine and waits for it to exit, releasing
// the underlying file. It is idempotent and must be called exactly when
// the consumer is done (no concurrent Next).
func (s *BlockScanner) Close() error {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.done
	return nil
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

// Blocks calls fn for consecutive blocks covering the dataset in point
// order. The block passed to fn is reused between calls. Cancellation
// of a non-nil ctx is checked between blocks.
func (ms *MemorySource) Blocks(ctx context.Context, fn func(*Block) error) error {
	n := ms.ds.Len()
	dims := ms.ds.Dims()
	bp := ms.blockPoints
	blk := Block{dims: dims}
	for start := 0; start < n; start += bp {
		if ctx != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		count := bp
		if rest := n - start; count > rest {
			count = rest
		}
		blk.start = start
		blk.data = ms.ds.data[start*dims : (start+count)*dims]
		if err := fn(&blk); err != nil {
			return err
		}
	}
	return nil
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
// every Blocks call opens a fresh BlockScanner, so one FileSource
// serves any number of sequential passes while holding no file handle
// between them. The header is read (and size-verified) once at open.
type FileSource struct {
	path        string
	blockPoints int
	dims        int
	n           int
	labeled     bool
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

// Blocks streams the file once, calling fn for consecutive blocks in
// point order. The block passed to fn is reused between calls. A
// non-nil ctx aborts the pass between blocks.
func (fs *FileSource) Blocks(ctx context.Context, fn func(*Block) error) error {
	sc, err := OpenBlockScanner(fs.path, fs.blockPoints)
	if err != nil {
		return err
	}
	defer sc.Close()
	if err := fs.checkShape(sc.Len(), sc.Dims()); err != nil {
		return err
	}
	for {
		b, err := sc.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// ReadPoints copies the points at the given indices into dst, row i
// holding point idx[i], with one positioned read per index: a sample of
// a few hundred points costs a few hundred small reads, not a pass.
// Like Blocks it re-reads and size-checks the header, so a file
// truncated or reshaped since OpenFileSource fails here. An index
// outside [0, Len()) or a short read is an error.
func (fs *FileSource) ReadPoints(idx []int, dst []float64) error {
	f, err := os.Open(fs.path)
	if err != nil {
		return fmt.Errorf("dataset: opening %s: %w", fs.path, err)
	}
	defer f.Close()
	dims, n, labeled, err := readBlockHeader(f)
	if err != nil {
		return err
	}
	if _, err := verifyDeclaredSize(f, dims, n, labeled); err != nil {
		return err
	}
	if err := fs.checkShape(n, dims); err != nil {
		return err
	}
	if err := checkReadPoints(idx, dst, dims, n); err != nil {
		return err
	}
	row := int64(dims) * 8
	for i, p := range idx {
		at := io.NewSectionReader(f, binaryHeaderSize+int64(p)*row, row)
		if err := readFloat64s(at, dst[i*dims:(i+1)*dims]); err != nil {
			return fmt.Errorf("dataset: reading point %d: %w", p, err)
		}
	}
	return nil
}

// checkShape reports a file whose header no longer declares the shape
// OpenFileSource read.
func (fs *FileSource) checkShape(n, dims int) error {
	if dims != fs.dims || n != fs.n {
		return fmt.Errorf("dataset: %s changed shape mid-run (%d×%d, was %d×%d)",
			fs.path, n, dims, fs.n, fs.dims)
	}
	return nil
}
