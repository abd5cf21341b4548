package dist

// segmentalRows is SegmentalRows's kernel in SSE2 assembly
// (rows_amd64.s), over a batch its caller has checked: it reads rows
// and dims without bounds checks.
//
//go:noescape
func segmentalRows(out, data []float64, d int, rows, dims []int, center []float64)

// addAbsDiffs is AddAbsDiffs's kernel in SSE2 assembly (rows_amd64.s),
// over a batch its caller has checked.
//
//go:noescape
func addAbsDiffs(x, center, data []float64, d int, rows []int)
