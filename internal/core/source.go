package core

import (
	"context"

	"proclus/internal/dataset"
)

// PointSource is the data abstraction the out-of-core engine consumes:
// a point set of known shape that can be swept in contiguous blocks any
// number of times, and whose individual points can be read by position.
// The PROCLUS paper structures its full-data stages as single passes
// over disk-resident data (§3); Pass is that pass contract, and
// ReadPoints fetches the initialization sample without a pass.
// dataset.MemorySource adapts an in-memory Dataset (zero-copy blocks)
// and dataset.FileSource streams a binary file, each worker reading
// whole blocks by position into two buffers of its own. The engine
// produces bit-identical Results over either, for any block size and
// worker count.
type PointSource interface {
	// Len returns the number of points.
	Len() int
	// Dims returns the dimensionality of the points.
	Dims() int
	// Pass sweeps the points once in contiguous blocks. work, when
	// non-nil, runs on each block exactly once, on one of up to workers
	// goroutines; fold then runs on each block on the calling
	// goroutine, one block at a time in index order. A block, and its
	// Slot in [0, 2·workers), belong to the pass until its fold returns.
	// The first error in block order from reading, work or fold, or a
	// cancellation of a non-nil ctx, checked before every fold, ends the
	// pass, and no goroutine outlives it.
	Pass(ctx context.Context, workers int, work, fold func(*dataset.Block) error) error
	// ReadPoints copies the points at the given indices into dst, which
	// holds len(idx)·Dims() values: row i of dst receives point idx[i].
	// An index outside [0, Len()) is an error.
	ReadPoints(idx []int, dst []float64) error
}

var (
	_ PointSource = (*dataset.MemorySource)(nil)
	_ PointSource = (*dataset.FileSource)(nil)
)
