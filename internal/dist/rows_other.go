//go:build !amd64

package dist

// Off amd64 the batch kernels are their plain-Go twins.

func segmentalRows(out, data []float64, d int, rows, dims []int, center []float64) {
	segmentalRowsGeneric(out, data, d, rows, dims, center)
}

func addAbsDiffs(x, center, data []float64, d int, rows []int) {
	addAbsDiffsGeneric(x, center, data, d, rows)
}
