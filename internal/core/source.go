package core

import (
	"context"

	"proclus/internal/dataset"
)

// PointSource is the data abstraction the out-of-core engine consumes:
// a point set of known shape that can be swept in contiguous blocks any
// number of times, and whose individual points can be read by position.
// The PROCLUS paper structures its full-data stages as single passes
// over disk-resident data (§3); Blocks is that pass contract, and
// ReadPoints fetches the initialization sample without a pass.
// dataset.MemorySource adapts an in-memory Dataset (zero-copy blocks)
// and dataset.FileSource streams a binary file through a
// double-buffered BlockScanner — the engine produces bit-identical
// Results over either, for any block size and worker count.
type PointSource interface {
	// Len returns the number of points.
	Len() int
	// Dims returns the dimensionality of the points.
	Dims() int
	// Blocks calls fn for consecutive blocks covering the points in
	// index order; the *dataset.Block passed to fn is only valid during
	// the call. A non-nil ctx cancels the pass between blocks.
	Blocks(ctx context.Context, fn func(*dataset.Block) error) error
	// ReadPoints copies the points at the given indices into dst, which
	// holds len(idx)·Dims() values: row i of dst receives point idx[i].
	// An index outside [0, Len()) is an error.
	ReadPoints(idx []int, dst []float64) error
}

var (
	_ PointSource = (*dataset.MemorySource)(nil)
	_ PointSource = (*dataset.FileSource)(nil)
)
