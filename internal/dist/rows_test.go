package dist

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"proclus/internal/randx"
)

// specials are the values the batch kernels must treat exactly as the
// plain loop does: signed zeros, the smallest subnormals, the largest
// finite values (whose differences overflow to ±Inf), small integers
// that make sums tie, and NaN of either sign.
var specials = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324,
	math.MaxFloat64, -math.MaxFloat64,
	1, 2, 3, -1,
	math.NaN(), -math.NaN(),
}

// kernelValue draws a coordinate: a special value a third of the time,
// otherwise a small integer or a random float.
func kernelValue(rng *randx.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return specials[rng.Intn(len(specials))]
	case 1:
		return float64(rng.Intn(4))
	}
	return rng.Float64()*200 - 100
}

// offAlignment returns a slice of n values that starts one element past
// its allocation, so the kernels see it off the allocator's 16-byte
// alignment.
func offAlignment(rng *randx.Rand, n int) []float64 {
	s := make([]float64, n+1)[1:]
	for i := range s {
		s[i] = kernelValue(rng)
	}
	return s
}

// sameBits reports whether a and b have the same bits, counting any
// two NaNs as equal. Which NaN an operation on two NaNs returns depends
// on its operand order, which the Go compiler may swap for a
// commutative add (it does under the fuzzer's instrumentation), so the
// payload is not part of the kernels' contract. A fit never sees a
// NaN: the dataset rejects one at load, and sums of absolute
// differences of finite values are never NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// kernelCase is one input to the batch kernels.
type kernelCase struct {
	d      int
	data   []float64 // row-major, len(data)/d rows
	rows   []int     // nil: the first len(out) rows
	n      int       // rows to compute
	dims   []int
	center []float64
	x      []float64 // AddAbsDiffs's accumulator, len ≤ d
}

func (c kernelCase) String() string {
	return fmt.Sprintf("d=%d n=%d rows=%v dims=%v", c.d, c.n, c.rows, c.dims)
}

// randomCase draws a case of n rows in d dimensions. listed picks a
// row list, with repeats, over a few more rows than n; otherwise the
// rows are the first n.
func randomCase(rng *randx.Rand, d, n int, listed bool) kernelCase {
	c := kernelCase{d: d, n: n}
	total := n
	if listed {
		total = n + 3
		c.rows = make([]int, n)
		for q := range c.rows {
			c.rows[q] = rng.Intn(total)
		}
	}
	c.data = offAlignment(rng, total*d)
	c.center = offAlignment(rng, d)
	c.dims = make([]int, 1+rng.Intn(d+2)) // repeats when |dims| > d
	for t := range c.dims {
		c.dims[t] = rng.Intn(d)
	}
	c.x = offAlignment(rng, rng.Intn(d+1))
	return c
}

// checkSegmentalRows runs SegmentalRows on c three ways — the exported
// wrapper (assembly on amd64), the plain-Go twin, and a Segmental call
// per row — and reports any output whose bits differ.
func checkSegmentalRows(t *testing.T, c kernelCase) {
	t.Helper()
	got := make([]float64, c.n)
	twin := make([]float64, c.n)
	SegmentalRows(got, c.data, c.d, c.rows, c.dims, c.center)
	segmentalRowsGeneric(twin, c.data, c.d, c.rows, c.dims, c.center)
	for q := range got {
		r := q
		if c.rows != nil {
			r = c.rows[q]
		}
		want := Segmental(c.data[r*c.d:(r+1)*c.d], c.center, c.dims)
		if !sameBits(got[q], want) || !sameBits(twin[q], want) {
			t.Fatalf("%v: SegmentalRows row %d = %v (%#x), twin %v (%#x), Segmental %v (%#x)", c, q,
				got[q], math.Float64bits(got[q]), twin[q], math.Float64bits(twin[q]), want, math.Float64bits(want))
		}
	}
}

// checkAddAbsDiffs runs AddAbsDiffs on c, over its listed rows or its
// first n, three ways — the exported wrapper, the plain-Go twin, and
// the plain loop — and reports any sum whose bits differ.
func checkAddAbsDiffs(t *testing.T, c kernelCase) {
	t.Helper()
	rows := c.rows
	if rows == nil {
		rows = make([]int, c.n)
		for q := range rows {
			rows[q] = q
		}
	}
	gotX := append([]float64(nil), c.x...)
	twinX := append([]float64(nil), c.x...)
	wantX := append([]float64(nil), c.x...)
	AddAbsDiffs(gotX, c.center, c.data, c.d, rows)
	addAbsDiffsGeneric(twinX, c.center, c.data, c.d, rows)
	for _, r := range rows {
		for j := range wantX {
			wantX[j] += math.Abs(c.data[r*c.d+j] - c.center[j])
		}
	}
	for j := range wantX {
		if !sameBits(gotX[j], wantX[j]) || !sameBits(twinX[j], wantX[j]) {
			t.Fatalf("%v: AddAbsDiffs x[%d] = %v (%#x), twin %v (%#x), loop %v (%#x)", c, j,
				gotX[j], math.Float64bits(gotX[j]), twinX[j], math.Float64bits(twinX[j]), wantX[j], math.Float64bits(wantX[j]))
		}
	}
}

// TestBatchKernelsMatchTwin compares the batch kernels with their twins
// and with the single-pair loop, bit for bit, over d = 1…12 and 100
// (odd and even coordinate counts and dimension sets), 0…11 rows (every
// remainder of the kernels' four-row steps), contiguous and listed rows,
// slices that start off alignment, and inputs laced with signed zeros,
// subnormals, overflowing differences, ties and NaN: 64 random cases
// per shape, 19,968 in all.
func TestBatchKernelsMatchTwin(t *testing.T) {
	rng := randx.New(27)
	ds := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 100}
	for _, d := range ds {
		for n := 0; n <= 11; n++ {
			for _, listed := range []bool{false, true} {
				for rep := 0; rep < 64; rep++ {
					c := randomCase(rng, d, n, listed)
					checkSegmentalRows(t, c)
					checkAddAbsDiffs(t, c)
				}
			}
		}
	}
	// Past one batch: the wrappers hand the kernels batchRows rows at a
	// time.
	for _, listed := range []bool{false, true} {
		c := randomCase(rng, 5, 2*batchRows+37, listed)
		checkSegmentalRows(t, c)
		checkAddAbsDiffs(t, c)
	}
}

// TestBatchKernelsCheckBeforeReading proves that the wrappers reject an
// out-of-range row or dimension, and the other malformed calls, before
// any kernel runs: each call panics, and the output, filled with a
// sentinel, is untouched, although every earlier row was valid.
func TestBatchKernelsCheckBeforeReading(t *testing.T) {
	const d, n = 3, 2*batchRows + 5
	data := make([]float64, n*d)
	center := make([]float64, d)
	valid := func() []int {
		rows := make([]int, n)
		for q := range rows {
			rows[q] = q
		}
		return rows
	}
	lastRow := func(r int) []int {
		rows := valid()
		rows[n-1] = r
		return rows
	}
	cases := []struct {
		name string
		call func(out []float64)
	}{
		{"row past the end", func(out []float64) { SegmentalRows(out, data, d, lastRow(n), []int{0}, center) }},
		{"negative row", func(out []float64) { SegmentalRows(out, data, d, lastRow(-1), []int{0}, center) }},
		{"contiguous rows past the end", func(out []float64) { SegmentalRows(out, data[:len(data)-1], d, nil, []int{0}, center) }},
		{"dimension past d", func(out []float64) { SegmentalRows(out, data, d, nil, []int{0, d}, center) }},
		{"negative dimension", func(out []float64) { SegmentalRows(out, data, d, nil, []int{0, -1}, center) }},
		{"dimension past the center", func(out []float64) { SegmentalRows(out, data, d, nil, []int{2}, center[:2]) }},
		{"empty dimension set", func(out []float64) { SegmentalRows(out, data, d, nil, nil, center) }},
		{"row list shorter than out", func(out []float64) { SegmentalRows(out, data, d, valid()[1:], []int{0}, center) }},
		{"zero row length", func(out []float64) { SegmentalRows(out, data, 0, nil, []int{0}, center) }},
		{"AddAbsDiffs row past the end", func(out []float64) { AddAbsDiffs(out[:d], center, data, d, lastRow(n)) }},
		{"AddAbsDiffs negative row", func(out []float64) { AddAbsDiffs(out[:d], center, data, d, lastRow(-1)) }},
		{"AddAbsDiffs x longer than d", func(out []float64) { AddAbsDiffs(out[:d+1], append(center, 0), data, d, valid()) }},
		{"AddAbsDiffs x longer than the center", func(out []float64) { AddAbsDiffs(out[:d], center[:d-1], data, d, valid()) }},
		{"AddAbsDiffs negative row length", func(out []float64) { AddAbsDiffs(out[:0], center, data, -d, valid()) }},
	}
	const sentinel = 42.5
	for _, tc := range cases {
		out := make([]float64, n)
		for i := range out {
			out[i] = sentinel
		}
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			tc.call(out)
			return ""
		}()
		if msg == "" {
			t.Errorf("%s: no panic", tc.name)
			continue
		}
		if !strings.HasPrefix(msg, "dist: ") {
			t.Errorf("%s: panic %q, want a dist: message", tc.name, msg)
		}
		for i, v := range out {
			if v != sentinel {
				t.Errorf("%s: out[%d] = %v after the panic: a kernel ran before the check", tc.name, i, v)
				break
			}
		}
	}
}

// fuzzCase decodes a kernel case from arbitrary bytes: the header picks
// d, the row count, listed or contiguous rows and the dimension set,
// and the rest supplies every coordinate's raw bits (NaNs, infinities
// and subnormals included), cycling when it runs out.
func fuzzCase(data []byte) (kernelCase, bool) {
	if len(data) < 4 {
		return kernelCase{}, false
	}
	d := 1 + int(data[0]%12)
	n := int(data[1] % 12)
	listed := data[2]&1 == 1
	rest := data[4:]
	at := 0
	next := func() float64 {
		var bits uint64
		for b := 0; b < 8 && len(rest) > 0; b++ {
			bits = bits<<8 | uint64(rest[at%len(rest)])
			at++
		}
		return math.Float64frombits(bits)
	}
	c := kernelCase{d: d, n: n}
	total := n
	if listed {
		total = n + 2
		c.rows = make([]int, n)
		for q := range c.rows {
			c.rows[q] = int(data[(4+q)%len(data)]) % total
		}
	}
	c.data = make([]float64, total*d+1)[1:]
	for i := range c.data {
		c.data[i] = next()
	}
	c.center = make([]float64, d)
	for j := range c.center {
		c.center[j] = next()
	}
	for j := 0; j < d; j++ {
		if data[3]>>(j%8)&1 == 1 || j == int(data[3])%d {
			c.dims = append(c.dims, j)
		}
	}
	c.x = make([]float64, int(data[2]>>1)%(d+1))
	for j := range c.x {
		c.x[j] = next()
	}
	return c, true
}

// FuzzSegmentalRows checks SegmentalRows against its twin and against
// Segmental, bit for bit, on arbitrary coordinates.
func FuzzSegmentalRows(f *testing.F) {
	f.Add([]byte{7, 5, 1, 0xa5, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{11, 11, 0, 0xff, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0xff, 0xf0})
	f.Add([]byte("\x03\x09\x01\x06segmental-rows-differential-seed-corpus"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := fuzzCase(data); ok {
			checkSegmentalRows(t, c)
		}
	})
}

// FuzzAddAbsDiffs checks AddAbsDiffs against its twin and against the
// plain loop, bit for bit, on arbitrary coordinates.
func FuzzAddAbsDiffs(f *testing.F) {
	f.Add([]byte{9, 6, 0x15, 0x33, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{11, 11, 0xff, 0xff, 0x7f, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("\x0b\x07\x17\x01add-abs-diffs-differential-seed-corpus"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := fuzzCase(data); ok {
			checkAddAbsDiffs(t, c)
		}
	})
}
