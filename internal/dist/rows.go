package dist

import (
	"fmt"
	"math"
)

// The batch kernels. Nearly all of a PROCLUS fit is sums of |p_j − m_j|
// over many points p against one fixed point m: the X_{i,j} of
// FindDimensions, the segmental distances of the assignment passes and
// of the objective, and the candidate table's full-dimensional
// distances. SegmentalRows and AddAbsDiffs compute such sums for a
// batch of rows of a row-major matrix in one call.
//
// On amd64 the kernels are SSE2 assembly (rows_amd64.s), where the
// compiled Go form pays a round trip through a general register for
// every math.Abs. Elsewhere they are the plain-Go twins below, which
// are also the tests' reference on every platform. Both give the same
// bits: a packed lane holds a different row, or a different coordinate,
// so no two terms of one sum ever share a lane; SUBPD, ADDPD and DIVPD
// round each lane exactly as SUBSD, ADDSD and DIVSD do; and ANDPD with
// 0x7FFF… clears the sign bit, which is math.Abs. Each sum therefore
// receives the same terms in the same order as the plain loop.

// batchRows is the most rows one kernel call handles. Assembly cannot
// be preempted, so the exported wrappers hand a long row list over in
// batches and the goroutine stays preemptible between them.
const batchRows = 1024

// SegmentalRows sets out[q] = Segmental(row, center, dims) for every q,
// where row is data[r·d : (r+1)·d] with r = rows[q], or r = q when rows
// is nil. data holds row-major points of d coordinates. It panics if
// dims is empty, if rows is non-nil and its length differs from out's,
// or if a row or a dimension is out of range; it checks all of them
// before any kernel reads memory.
func SegmentalRows(out, data []float64, d int, rows, dims []int, center []float64) {
	if len(dims) == 0 {
		panic("dist: SegmentalRows called with empty dimension set")
	}
	checkRows(data, d, rows, len(out))
	for _, j := range dims {
		checkIndex("dimension", j, min(d, len(center)))
	}
	for lo := 0; lo < len(out); lo += batchRows {
		hi := min(lo+batchRows, len(out))
		if rows == nil {
			segmentalRows(out[lo:hi], data[lo*d:], d, nil, dims, center)
		} else {
			segmentalRows(out[lo:hi], data, d, rows[lo:hi], dims, center)
		}
	}
}

// AddAbsDiffs adds |row_j − center_j| to x[j], for every j < len(x) and
// every row data[r·d : (r+1)·d] with r in rows, in list order. It
// panics if len(x) exceeds d or len(center), or if a row is out of
// range, before any kernel reads memory.
func AddAbsDiffs(x, center, data []float64, d int, rows []int) {
	if len(x) > d || len(x) > len(center) {
		panic(fmt.Sprintf("dist: %d coordinates for rows of %d and a center of %d", len(x), d, len(center)))
	}
	checkRows(data, d, rows, len(rows))
	for lo := 0; lo < len(rows); lo += batchRows {
		addAbsDiffs(x, center, data, d, rows[lo:min(lo+batchRows, len(rows))])
	}
}

// checkRows checks that d is positive and that every one of the n rows
// the kernels will read — rows[q], or 0 ≤ q < n when rows is nil — lies
// in data.
func checkRows(data []float64, d int, rows []int, n int) {
	if d <= 0 {
		panic(fmt.Sprintf("dist: row length %d is not positive", d))
	}
	have := len(data) / d
	if rows == nil {
		if n > have {
			panic(fmt.Sprintf("dist: %d rows wanted from data holding %d", n, have))
		}
		return
	}
	if len(rows) != n {
		panic(fmt.Sprintf("dist: %d rows listed for %d outputs", len(rows), n))
	}
	for _, r := range rows {
		checkIndex("row", r, have)
	}
}

// checkIndex panics unless 0 ≤ i < n.
func checkIndex(what string, i, n int) {
	if uint(i) >= uint(n) {
		panic(fmt.Sprintf("dist: %s %d out of range [0, %d)", what, i, n))
	}
}

// segmentalRowsGeneric is the plain-Go segmentalRows: one Segmental
// call per row.
func segmentalRowsGeneric(out, data []float64, d int, rows, dims []int, center []float64) {
	for q := range out {
		r := q
		if rows != nil {
			r = rows[q]
		}
		out[q] = Segmental(data[r*d:(r+1)*d], center, dims)
	}
}

// addAbsDiffsGeneric is the plain-Go addAbsDiffs: each row's terms are
// added to x in row order.
func addAbsDiffsGeneric(x, center, data []float64, d int, rows []int) {
	center = center[:len(x)]
	for _, r := range rows {
		row := data[r*d : r*d+len(x)]
		for j := range x {
			x[j] += math.Abs(row[j] - center[j])
		}
	}
}
