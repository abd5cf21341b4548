package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"unsafe"
)

// CSV layout: one row per point, coordinates as decimal floats. When the
// dataset is labeled, a final "label" column holds the ground-truth
// cluster index (or -1 for outliers). An optional header row is written
// as dim0..dimN[,label] and recognized on read.

// WriteCSV writes the dataset to w in CSV form, with a header row.
func (ds *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, ds.dims+1)
	for j := 0; j < ds.dims; j++ {
		header = append(header, fmt.Sprintf("dim%d", j))
	}
	if ds.Labeled() {
		header = append(header, "label")
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	row := make([]string, len(header))
	n := ds.Len()
	for i := 0; i < n; i++ {
		p := ds.Point(i)
		for j, v := range p {
			row[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if ds.Labeled() {
			row[ds.dims] = strconv.Itoa(ds.Label(i))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a dataset from CSV. If hasLabels is true the final
// column is parsed as the ground-truth label. A first row whose cells do
// not parse as numbers is treated as a header and skipped.
func ReadCSV(r io.Reader, hasLabels bool) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	var ds *Dataset
	rowNum := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		rowNum++
		dims := len(rec)
		if hasLabels {
			dims--
		}
		if dims <= 0 {
			return nil, fmt.Errorf("dataset: CSV row %d has no coordinate columns", rowNum)
		}
		if ds == nil {
			// Header detection: if the first cell is not numeric, skip.
			if _, err := strconv.ParseFloat(rec[0], 64); err != nil {
				ds = New(dims)
				continue
			}
			ds = New(dims)
		}
		if dims != ds.dims {
			return nil, fmt.Errorf("dataset: CSV row %d has %d dims, want %d", rowNum, dims, ds.dims)
		}
		p := make([]float64, dims)
		for j := 0; j < dims; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV row %d col %d: %w", rowNum, j, err)
			}
			p[j] = v
		}
		if hasLabels {
			l, err := strconv.Atoi(rec[dims])
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV row %d label: %w", rowNum, err)
			}
			ds.AppendLabeled(p, l)
		} else {
			ds.Append(p)
		}
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("dataset: CSV input contains no points")
	}
	return ds, ds.Validate()
}

// Binary layout (little-endian):
//
//	magic   [4]byte  "PCDS"
//	version uint32   1
//	dims    uint32
//	n       uint64
//	labeled uint8    0 or 1
//	data    n*dims float64
//	labels  n int64 (only if labeled)
//
// The binary format exists for the large scalability inputs (Figure 7
// uses up to 500k×20 points); it round-trips exactly and loads without
// per-cell parsing.

var binaryMagic = [4]byte{'P', 'C', 'D', 'S'}

const binaryVersion = 1

// WriteBinary writes the dataset in the repository's binary format.
func (ds *Dataset) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("dataset: writing binary magic: %w", err)
	}
	hdr := []any{uint32(binaryVersion), uint32(ds.dims), uint64(ds.Len())}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("dataset: writing binary header: %w", err)
		}
	}
	labeled := uint8(0)
	if ds.Labeled() {
		labeled = 1
	}
	if err := binary.Write(bw, binary.LittleEndian, labeled); err != nil {
		return fmt.Errorf("dataset: writing binary header: %w", err)
	}
	buf := make([]byte, 8)
	for _, v := range ds.data {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("dataset: writing binary data: %w", err)
		}
	}
	if ds.Labeled() {
		for _, l := range ds.labels {
			binary.LittleEndian.PutUint64(buf, uint64(int64(l)))
			if _, err := bw.Write(buf); err != nil {
				return fmt.Errorf("dataset: writing binary labels: %w", err)
			}
		}
	}
	return bw.Flush()
}

// binaryHeaderSize is the byte length of the binary format's fixed
// header: magic(4) + version(4) + dims(4) + n(8) + labeled(1).
const binaryHeaderSize = 4 + 4 + 4 + 8 + 1

// readBlockHeader parses and validates the binary-format header with one
// 21-byte read, returning the declared shape. Its limits keep a header
// from demanding memory proportional to its own declared (possibly
// lying) size before the size is checked or the data is read.
func readBlockHeader(r io.Reader) (dims, n int, labeled bool, err error) {
	var h [binaryHeaderSize]byte
	got, err := io.ReadFull(r, h[:])
	if got >= len(binaryMagic) && [4]byte(h[:4]) != binaryMagic {
		return 0, 0, false, fmt.Errorf("dataset: bad binary magic %q", h[:4])
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("dataset: reading binary header: %w", err)
	}
	version := binary.LittleEndian.Uint32(h[4:])
	dims32 := binary.LittleEndian.Uint32(h[8:])
	n64 := binary.LittleEndian.Uint64(h[12:])
	if version != binaryVersion {
		return 0, 0, false, fmt.Errorf("dataset: unsupported binary version %d", version)
	}
	if dims32 == 0 {
		return 0, 0, false, fmt.Errorf("dataset: binary header declares zero dims")
	}
	const maxDims = 1 << 20
	if dims32 > maxDims {
		return 0, 0, false, fmt.Errorf("dataset: binary header declares %d dims (limit %d)", dims32, maxDims)
	}
	// The count must also fit int, which has 32 bits on 32-bit targets.
	const maxPoints uint64 = 1 << 40
	if limit := min(maxPoints, uint64(math.MaxInt)); n64 > limit {
		return 0, 0, false, fmt.Errorf("dataset: binary header declares %d points (limit %d)", n64, limit)
	}
	return int(dims32), int(n64), h[20] == 1, nil
}

// littleEndianHost reports whether float64s in memory share the binary
// format's byte order, so file bytes can land in them unchanged.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// readFloat64s fills dst with the next len(dst) little-endian float64s
// of r, reading straight into dst's own memory: the file bytes are
// copied once, from the reader into the destination, with no staging
// buffer and no per-value decode. The byte view aliases dst only for the
// duration of the read and covers exactly its 8·len(dst) bytes. On a
// little-endian host those bytes are already the values; on a
// big-endian host swapFloat64s then reverses each value in place. On
// error dst holds a partial read.
func readFloat64s(r io.Reader, dst []float64) error {
	if len(dst) == 0 {
		return nil
	}
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst))
	if _, err := io.ReadFull(r, raw); err != nil {
		return err
	}
	if !littleEndianHost {
		swapFloat64s(dst)
	}
	return nil
}

// readFloat64sAt is readFloat64s by position: it fills dst from the
// little-endian float64s at byte offset off of r. A short read is
// io.ErrUnexpectedEOF, as from readFloat64s. Positioned reads share no
// file offset, so several goroutines may read one file at once.
func readFloat64sAt(r io.ReaderAt, off int64, dst []float64) error {
	if len(dst) == 0 {
		return nil
	}
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst))
	if n, err := r.ReadAt(raw, off); n < len(raw) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if !littleEndianHost {
		swapFloat64s(dst)
	}
	return nil
}

// swapFloat64s reverses the byte order of every value in dst: on a
// big-endian host it turns little-endian file bytes read into dst into
// the values they encode.
func swapFloat64s(dst []float64) {
	for i, v := range dst {
		dst[i] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(v)))
	}
}

// binaryChunk bounds, in values, each read of an input whose declared
// size could not be checked against a file size.
const binaryChunk = 1 << 16

// appendFloat64s appends the next count little-endian float64s of r to
// dst, growing dst one chunk of at most binaryChunk values at a time, so
// memory follows the bytes actually present rather than a count a
// header declared (found by FuzzReadBinary).
func appendFloat64s(r io.Reader, dst []float64, count int) ([]float64, error) {
	for count > 0 {
		c := min(count, binaryChunk)
		dst = slices.Grow(dst, c)
		if err := readFloat64s(r, dst[len(dst):len(dst)+c]); err != nil {
			return nil, err
		}
		dst, count = dst[:len(dst)+c], count-c
	}
	return dst, nil
}

// readLabels reads the next n little-endian int64 labels of r in chunks
// of at most binaryChunk labels. The result starts at capacity capHint,
// which a caller sets to n once the file size has vouched for it; from
// less, it grows only with the bytes actually read.
func readLabels(r io.Reader, n, capHint int) ([]int, error) {
	dst := make([]int, 0, capHint)
	buf := make([]byte, 8*min(n, binaryChunk))
	for n > 0 {
		b := buf[:8*min(n, binaryChunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 8 {
			dst = append(dst, int(int64(binary.LittleEndian.Uint64(b[i:]))))
		}
		n -= len(b) / 8
	}
	return dst, nil
}

// readBinaryBody reads the data and label sections that follow a header
// declaring n points of dims coordinates. When sized is true the caller
// has checked the declared size against the file, so each section is
// allocated once at its final size and the data arrives in one read;
// otherwise both grow chunk by chunk with the input, and a lying header
// fails at EOF after a small allocation.
func readBinaryBody(r io.Reader, dims, n int, labeled, sized bool) (*Dataset, error) {
	ds := New(dims)
	var err error
	labelCap := 0
	if sized {
		ds.data = make([]float64, n*dims)
		err = readFloat64s(r, ds.data)
		labelCap = n
	} else {
		ds.data, err = appendFloat64s(r, nil, n*dims)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading binary data: %w", err)
	}
	if labeled && n > 0 {
		if ds.labels, err = readLabels(r, n, labelCap); err != nil {
			return nil, fmt.Errorf("dataset: reading binary labels: %w", err)
		}
	}
	return ds, ds.Validate()
}

// ReadBinary reads a dataset previously written by WriteBinary. A plain
// reader has no size to check the header against, so the dataset grows
// with the content read; LoadFile allocates it exactly instead.
func ReadBinary(r io.Reader) (*Dataset, error) {
	dims, n, labeled, err := readBlockHeader(r)
	if err != nil {
		return nil, err
	}
	return readBinaryBody(r, dims, n, labeled, false)
}

// SaveFile writes the dataset to path; the format is chosen by file
// extension (".csv" → CSV, anything else → binary).
func (ds *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: creating %s: %w", path, err)
	}
	defer f.Close()
	if hasCSVExt(path) {
		if err := ds.WriteCSV(f); err != nil {
			return err
		}
	} else if err := ds.WriteBinary(f); err != nil {
		return err
	}
	return f.Close()
}

// SaveAssignments writes a point→cluster assignment CSV to path: a
// "point,cluster" header, then one row per point, with -1 for outliers.
// The replace is atomic but not durable. The rows go to a temporary file
// in path's directory, which is renamed over path only after every byte
// has been written and the file closed, so a failed or interrupted write
// never leaves a partial file at path. The file is not fsynced: a system
// crash soon after the rename can still lose it, and syncing would put
// disk latency into every run.
func SaveAssignments(path string, assignments []int) (retErr error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if retErr != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	// bufio.Writer errors are sticky: a failed write makes every later
	// write a no-op, and Flush reports it.
	w := bufio.NewWriterSize(f, 64<<10)
	w.WriteString("point,cluster\n")
	row := make([]byte, 0, 48)
	for i, a := range assignments {
		row = strconv.AppendInt(row[:0], int64(i), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(a), 10)
		row = append(row, '\n')
		w.Write(row)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// LoadFile reads a dataset from path; the format is chosen by file
// extension (".csv" → CSV with a label column expected iff hasLabels,
// anything else → binary, which is self-describing). A binary file's
// header is checked against the file's size before the data is
// allocated, exactly, and read in one call.
func LoadFile(path string, hasLabels bool) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening %s: %w", path, err)
	}
	defer f.Close()
	if hasCSVExt(path) {
		return ReadCSV(f, hasLabels)
	}
	dims, n, labeled, err := readBlockHeader(f)
	if err != nil {
		return nil, err
	}
	sized, err := verifyDeclaredSize(f, dims, n, labeled)
	if err != nil {
		return nil, err
	}
	return readBinaryBody(f, dims, n, labeled, sized)
}

func hasCSVExt(path string) bool {
	return len(path) >= 4 && path[len(path)-4:] == ".csv"
}
