// Package series is a fixed-capacity ring-buffer store for
// per-iteration and per-block trajectories — objective curves, swap
// acceptance, cache hit rates, block latencies — that the run report's
// totals cannot express.
//
// A Store hands out Series handles by (name, labels); instrumentation
// sites resolve a handle once and append through it lock-free of the
// store. Every Series owns a fixed-capacity ring whose backing array is
// allocated on the first Append — after that, appends overwrite in
// place, so a hill-climb iteration costs one mutex acquisition and two
// float64 stores and the steady state allocates nothing. Snapshots are
// deterministic: points come out in append order (oldest first) and
// stores sort their series by name then labels, so serializations of
// deterministic runs are byte-stable.
//
// Points carry a caller-supplied X coordinate — an iteration number, a
// block index, a lattice level — rather than a wall-clock stamp, so
// the recorded trajectory of a deterministic run is itself
// deterministic. Wall time stays in the event stream and the run
// report, where it belongs.
//
// All methods are nil-safe: a nil Store hands out nil Series handles,
// whose methods no-op, preserving the disabled-observability fast path.
package series

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// DefaultCapacity is the per-series ring capacity when NewStore is
// given zero: enough for every iteration of a default-configured
// PROCLUS restart (MaxIterations 500) with room to spare.
const DefaultCapacity = 512

// Label is one key="value" dimension of a series name, such as
// restart="2" or pass="assign".
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Series is one named trajectory: an append-only sequence of (X, V)
// points kept in a fixed-capacity ring. When the ring is full, the
// oldest points fall off; Total still counts every append, so readers
// can tell a truncated trajectory from a complete one.
type Series struct {
	mu    sync.Mutex
	cap   int
	xs    []float64 // allocated lazily on first Append; len == cap after
	vs    []float64
	head  int // index of the oldest retained point
	n     int // retained points
	total int64
}

// Append records one point. The first call allocates the ring's
// backing arrays; every later call is allocation-free. A nil series
// no-ops.
func (s *Series) Append(x, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.xs == nil {
		buf := make([]float64, 2*s.cap)
		s.xs, s.vs = buf[:s.cap], buf[s.cap:]
	}
	if s.n < s.cap {
		i := (s.head + s.n) % s.cap
		s.xs[i], s.vs[i] = x, v
		s.n++
	} else {
		s.xs[s.head], s.vs[s.head] = x, v
		s.head = (s.head + 1) % s.cap
	}
	s.total++
	s.mu.Unlock()
}

// Point is one recorded observation: a caller-defined coordinate
// (iteration, block index, level) and a value.
type Point struct {
	X float64 `json:"x"`
	V float64 `json:"v"`
}

// SeriesSnapshot is the immutable, JSON-ready copy of one series.
type SeriesSnapshot struct {
	Name     string  `json:"name"`
	Help     string  `json:"help,omitempty"`
	Labels   []Label `json:"labels,omitempty"`
	Capacity int     `json:"capacity"`
	// Total counts every append, retained or evicted; Total >
	// len(Points) marks a truncated trajectory.
	Total  int64   `json:"total"`
	Points []Point `json:"points"`
}

// Last returns the most recent point, or ok=false for an empty series.
func (s SeriesSnapshot) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// snapshotPoints copies the retained points oldest-first.
func (s *Series) snapshotPoints() ([]Point, int64) {
	if s == nil {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pts := make([]Point, 0, s.n)
	for i := 0; i < s.n; i++ {
		j := (s.head + i) % s.cap
		pts = append(pts, Point{X: s.xs[j], V: s.vs[j]})
	}
	return pts, s.total
}

// Store is a named collection of series. Get-or-create lookups and
// snapshots are guarded by a mutex; the Series handles themselves carry
// their own lock, so recording never contends with unrelated series.
type Store struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*entry
}

type entry struct {
	name   string
	help   string
	labels []Label
	s      *Series
}

// NewStore returns an empty store whose series hold up to capacity
// points each (0 selects DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{cap: capacity, entries: map[string]*entry{}}
}

// seriesKey identifies one series: name plus sorted labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte(0xfe)
		b.WriteString(l.Value)
	}
	return b.String()
}

// Series returns the named series, creating it when absent. Nil
// receivers return a nil (no-op) handle.
func (st *Store) Series(name, help string, labels ...Label) *Series {
	if st == nil {
		return nil
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	key := seriesKey(name, labels)
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[key]; ok {
		return e.s
	}
	e := &entry{name: name, help: help, labels: labels, s: &Series{cap: st.cap}}
	st.entries[key] = e
	return e.s
}

// StoreSnapshot is the deterministic (sorted by name, then labels)
// copy of a store's series, ready to embed in run reports.
type StoreSnapshot []SeriesSnapshot

// Find returns the first series with the given name and labels (order
// insensitive), or nil. With no labels given, it matches the first
// series of that name regardless of labels.
func (ss StoreSnapshot) Find(name string, labels ...Label) *SeriesSnapshot {
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	want := seriesKey(name, labels)
	for i := range ss {
		if len(labels) == 0 {
			if ss[i].Name == name {
				return &ss[i]
			}
			continue
		}
		if seriesKey(ss[i].Name, ss[i].Labels) == want {
			return &ss[i]
		}
	}
	return nil
}

// sortedEntries returns the store's entries in canonical order.
func (st *Store) sortedEntries() []*entry {
	st.mu.Lock()
	defer st.mu.Unlock()
	es := make([]*entry, 0, len(st.entries))
	for _, e := range st.entries {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].name != es[j].name {
			return es[i].name < es[j].name
		}
		return seriesKey(es[i].name, es[i].labels) < seriesKey(es[j].name, es[j].labels)
	})
	return es
}

// Snapshot copies every series in canonical order. A nil store yields
// a nil snapshot.
func (st *Store) Snapshot() StoreSnapshot {
	if st == nil {
		return nil
	}
	es := st.sortedEntries()
	out := make(StoreSnapshot, 0, len(es))
	for _, e := range es {
		pts, total := e.s.snapshotPoints()
		out = append(out, SeriesSnapshot{
			Name: e.name, Help: e.help, Labels: e.labels,
			Capacity: st.cap, Total: total, Points: pts,
		})
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON followed by a newline.
func (ss StoreSnapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(ss, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile writes the snapshot as indented JSON to path.
func (ss StoreSnapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ss.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSnapshot parses a snapshot previously serialized with WriteJSON.
func ReadSnapshot(r io.Reader) (StoreSnapshot, error) {
	var ss StoreSnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ss); err != nil {
		return nil, fmt.Errorf("series: parsing snapshot: %w", err)
	}
	return ss, nil
}

// ReadSnapshotFile parses a snapshot file written with WriteFile.
func ReadSnapshotFile(path string) (StoreSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
