package clique

import (
	"context"

	"proclus/internal/dataset"
)

// PointSource is the data abstraction the CLIQUE passes consume: a
// point set of known shape sweepable in contiguous blocks any number of
// times. It is declared locally (rather than importing the PROCLUS
// core) so the two algorithms stay independent; dataset.MemorySource
// and dataset.FileSource satisfy both interfaces. Every CLIQUE pass
// accumulates integer counts sharded so each counter belongs to exactly
// one worker, so Run and RunStream produce bit-identical Results over
// the same points for any source kind, block size and worker count.
type PointSource interface {
	// Len returns the number of points.
	Len() int
	// Dims returns the dimensionality of the points.
	Dims() int
	// Pass sweeps the points once in contiguous blocks, as
	// core.PointSource's Pass does: work, when non-nil, on up to workers
	// goroutines, then fold on the calling goroutine in index order.
	// CLIQUE's passes run fold alone, at one worker: each block is only
	// valid during its fold, and a non-nil ctx cancels the pass between
	// blocks.
	Pass(ctx context.Context, workers int, work, fold func(*dataset.Block) error) error
}

var (
	_ PointSource = (*dataset.MemorySource)(nil)
	_ PointSource = (*dataset.FileSource)(nil)
)
