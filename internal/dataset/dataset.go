// Package dataset provides the in-memory point-set representation shared
// by every algorithm in this repository, together with CSV and binary
// serialization.
//
// Points are stored row-major in a single flat backing slice, so that a
// full scan — the unit of work the PROCLUS paper reasons about ("one pass
// over the data") — walks memory sequentially. Point returns a view into
// the backing array, not a copy; callers must not grow it.
//
// A Dataset optionally carries integer ground-truth labels (the cluster
// each point was generated from, with Outlier for noise points). Labels
// are used only by the evaluation harness; the clustering algorithms
// never read them.
package dataset

import (
	"fmt"
	"math"
)

// Outlier is the ground-truth label of noise points.
const Outlier = -1

// Dataset is a set of N points in d-dimensional space.
type Dataset struct {
	dims   int
	data   []float64 // row-major, len = N*dims
	labels []int     // ground truth; nil if unlabeled, else len = N
}

// New returns an empty dataset of the given dimensionality. It panics if
// dims is not positive.
func New(dims int) *Dataset {
	if dims <= 0 {
		panic(fmt.Sprintf("dataset: non-positive dimensionality %d", dims))
	}
	return &Dataset{dims: dims}
}

// NewWithCapacity returns an empty dataset of the given dimensionality
// with backing storage preallocated for n points.
func NewWithCapacity(dims, n int) *Dataset {
	ds := New(dims)
	ds.data = make([]float64, 0, dims*n)
	return ds
}

// FromRows builds a dataset from a slice of rows, copying the data. All
// rows must have the same length. labels may be nil; otherwise it must
// have one entry per row.
func FromRows(rows [][]float64, labels []int) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: FromRows with no rows")
	}
	if labels != nil && len(labels) != len(rows) {
		return nil, fmt.Errorf("dataset: %d labels for %d rows", len(labels), len(rows))
	}
	ds := NewWithCapacity(len(rows[0]), len(rows))
	for i, row := range rows {
		if len(row) != ds.dims {
			return nil, fmt.Errorf("dataset: row %d has %d dims, want %d", i, len(row), ds.dims)
		}
		ds.data = append(ds.data, row...)
	}
	if labels != nil {
		ds.labels = append([]int(nil), labels...)
	}
	return ds, nil
}

// FromFlat builds an unlabeled dataset around an existing row-major
// backing slice without copying it. The caller hands over ownership of
// data. It is the constructor for streamed sample collection, where the
// flat buffer is filled by a read by position before the dataset exists.
func FromFlat(dims int, data []float64) (*Dataset, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("dataset: non-positive dimensionality %d", dims)
	}
	if len(data)%dims != 0 {
		return nil, fmt.Errorf("dataset: backing length %d not a multiple of dims %d", len(data), dims)
	}
	return &Dataset{dims: dims, data: data}, nil
}

// Dims returns the dimensionality of the space.
func (ds *Dataset) Dims() int { return ds.dims }

// Len returns the number of points.
func (ds *Dataset) Len() int { return len(ds.data) / ds.dims }

// Point returns point i as a slice view into the dataset's backing
// array. The caller must not append to the returned slice.
func (ds *Dataset) Point(i int) []float64 {
	off := i * ds.dims
	return ds.data[off : off+ds.dims : off+ds.dims]
}

// Rows returns points [lo, hi) as one row-major view into the
// dataset's backing array. The caller must not append to it.
func (ds *Dataset) Rows(lo, hi int) []float64 {
	return ds.data[lo*ds.dims : hi*ds.dims : hi*ds.dims]
}

// Append adds a copy of p as a new unlabeled point. If the dataset is
// labeled, the new point receives the Outlier label. It panics on a
// dimensionality mismatch.
func (ds *Dataset) Append(p []float64) {
	ds.AppendLabeled(p, Outlier)
}

// AppendLabeled adds a copy of p with the given ground-truth label. The
// first labeled append on an unlabeled dataset back-fills Outlier labels
// for any existing points.
func (ds *Dataset) AppendLabeled(p []float64, label int) {
	if len(p) != ds.dims {
		panic(fmt.Sprintf("dataset: appending %d-dim point to %d-dim dataset", len(p), ds.dims))
	}
	ds.data = append(ds.data, p...)
	if ds.labels != nil || label != Outlier {
		for len(ds.labels) < ds.Len()-1 {
			ds.labels = append(ds.labels, Outlier)
		}
		ds.labels = append(ds.labels, label)
	}
}

// Labeled reports whether the dataset carries ground-truth labels.
func (ds *Dataset) Labeled() bool { return ds.labels != nil }

// Label returns the ground-truth label of point i, or Outlier if the
// dataset is unlabeled.
func (ds *Dataset) Label(i int) int {
	if ds.labels == nil {
		return Outlier
	}
	return ds.labels[i]
}

// Labels returns the ground-truth label slice (nil if unlabeled). The
// returned slice is the dataset's own storage; callers must not modify it.
func (ds *Dataset) Labels() []int { return ds.labels }

// NumLabels returns the number of distinct non-outlier ground-truth
// labels. Labels are assumed to be 0-based cluster indices.
func (ds *Dataset) NumLabels() int {
	max := -1
	for _, l := range ds.labels {
		if l > max {
			max = l
		}
	}
	return max + 1
}

// Each calls fn for every point index and view, in order. It exists so
// scan-structured code reads as a single pass.
func (ds *Dataset) Each(fn func(i int, p []float64)) {
	n := ds.Len()
	for i := 0; i < n; i++ {
		fn(i, ds.Point(i))
	}
}

// Validate checks structural invariants: consistent lengths and the
// absence of NaN or infinite coordinates. Algorithms call it at their
// entry points so corrupted input fails fast rather than producing
// silently wrong clusterings.
func (ds *Dataset) Validate() error {
	if ds.dims <= 0 {
		return fmt.Errorf("dataset: non-positive dimensionality %d", ds.dims)
	}
	if len(ds.data)%ds.dims != 0 {
		return fmt.Errorf("dataset: backing length %d not a multiple of dims %d", len(ds.data), ds.dims)
	}
	if ds.labels != nil && len(ds.labels) != ds.Len() {
		return fmt.Errorf("dataset: %d labels for %d points", len(ds.labels), ds.Len())
	}
	for i, v := range ds.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: point %d dim %d is %v", i/ds.dims, i%ds.dims, v)
		}
	}
	return nil
}

// Centroid returns the coordinate-wise mean of the points whose indices
// appear in members. It panics if members is empty.
func (ds *Dataset) Centroid(members []int) []float64 {
	if len(members) == 0 {
		panic("dataset: Centroid of empty member set")
	}
	c := make([]float64, ds.dims)
	for _, i := range members {
		p := ds.Point(i)
		for j, v := range p {
			c[j] += v
		}
	}
	inv := 1 / float64(len(members))
	for j := range c {
		c[j] *= inv
	}
	return c
}

// Bounds returns per-dimension [min, max] over all points. It panics on
// an empty dataset.
func (ds *Dataset) Bounds() (min, max []float64) {
	if ds.Len() == 0 {
		panic("dataset: Bounds of empty dataset")
	}
	min = append([]float64(nil), ds.Point(0)...)
	max = append([]float64(nil), ds.Point(0)...)
	ds.Each(func(_ int, p []float64) {
		for j, v := range p {
			if v < min[j] {
				min[j] = v
			}
			if v > max[j] {
				max[j] = v
			}
		}
	})
	return min, max
}

// Clone returns a deep copy of the dataset.
func (ds *Dataset) Clone() *Dataset {
	out := &Dataset{dims: ds.dims}
	out.data = append([]float64(nil), ds.data...)
	if ds.labels != nil {
		out.labels = append([]int(nil), ds.labels...)
	}
	return out
}

// Subset returns a new dataset holding copies of the points (and labels,
// if present) at the given indices, in order.
func (ds *Dataset) Subset(indices []int) *Dataset {
	out := NewWithCapacity(ds.dims, len(indices))
	for _, i := range indices {
		out.AppendLabeled(ds.Point(i), ds.Label(i))
	}
	if ds.labels == nil {
		out.labels = nil
	}
	return out
}
