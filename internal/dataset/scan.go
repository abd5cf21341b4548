package dataset

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
)

// Out-of-core summaries of a binary dataset file. They read the file
// through the same header parser and block reader as every streamed
// pass, and never hold the data section in memory.

// ScanLabelHistogram returns the ground-truth label counts of a labeled
// binary dataset file without reading the data section (see ScanLabels).
// It returns an error for unlabeled files.
func ScanLabelHistogram(path string) (map[int]int, error) {
	labels, err := ScanLabels(path)
	if err != nil {
		return nil, err
	}
	counts := make(map[int]int)
	for _, l := range labels {
		counts[l]++
	}
	return counts, nil
}

// ScanLabels returns the full ground-truth label slice of a labeled
// binary dataset file without reading the data section: it seeks
// directly to the label block, which it reads in bulk. Streamed runs use
// it to evaluate against ground truth without materializing the points.
// It returns an error for unlabeled files.
func ScanLabels(path string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening %s: %w", path, err)
	}
	defer f.Close()
	dims, n, labeled, err := readBlockHeader(f)
	if err != nil {
		return nil, err
	}
	if !labeled {
		return nil, fmt.Errorf("dataset: %s carries no labels", path)
	}
	sized, err := verifyDeclaredSize(f, dims, n, labeled)
	if err != nil {
		return nil, err
	}
	offset := int64(binaryHeaderSize) + int64(n)*int64(dims)*8
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, fmt.Errorf("dataset: seeking to label block: %w", err)
	}
	capHint := 0
	if sized {
		capHint = n
	}
	labels, err := readLabels(f, n, capHint)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading labels: %w", err)
	}
	return labels, nil
}

// ColumnStats summarizes one dimension of a dataset.
type ColumnStats struct {
	Min, Max, Mean, StdDev float64
}

// ScanStats computes per-dimension statistics of a binary dataset file
// in one streaming pass (Welford's algorithm for the variance), without
// loading the data into memory. The blocks arrive in point order, so the
// updates run in file order whatever the block size.
func ScanStats(path string) (n int, stats []ColumnStats, err error) {
	src, err := OpenFileSource(path, 0)
	if err != nil {
		return 0, nil, err
	}
	d := src.Dims()
	stats = make([]ColumnStats, d)
	means := make([]float64, d)
	m2 := make([]float64, d)
	for j := range stats {
		stats[j].Min = math.Inf(1)
		stats[j].Max = math.Inf(-1)
	}
	err = src.Blocks(context.TODO(), func(b *Block) error {
		for i := 0; i < b.Len(); i++ {
			n++
			for j, v := range b.Point(i) {
				if v < stats[j].Min {
					stats[j].Min = v
				}
				if v > stats[j].Max {
					stats[j].Max = v
				}
				delta := v - means[j]
				means[j] += delta / float64(n)
				m2[j] += delta * (v - means[j])
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	if n == 0 {
		return 0, nil, fmt.Errorf("dataset: %s holds no points", path)
	}
	for j := range stats {
		stats[j].Mean = means[j]
		if n > 1 {
			stats[j].StdDev = math.Sqrt(m2[j] / float64(n-1))
		}
	}
	return n, stats, nil
}
