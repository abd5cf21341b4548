package obs

import (
	"sync"
	"time"
)

// SpanKind classifies a node of the span tree a SpanBuilder grows from
// the event stream.
type SpanKind string

// Span kinds, from the root down: a run contains phases, phases
// contain restarts (PROCLUS iterate), levels (CLIQUE search) and
// passes; restarts contain iterations; passes contain blocks.
// Marks are zero-duration annotations (medoid swaps, stalls).
const (
	SpanRun       SpanKind = "run"
	SpanPhase     SpanKind = "phase"
	SpanRestart   SpanKind = "restart"
	SpanIteration SpanKind = "iteration"
	SpanLevel     SpanKind = "level"
	SpanPass      SpanKind = "pass"
	SpanBlock     SpanKind = "block"
	SpanMark      SpanKind = "mark"
)

// Span is one node of the hierarchical trace: a named interval with
// typed children. Start and End are seconds since the trace origin
// (builder creation for live observation, file origin for replay).
type Span struct {
	Name  string   `json:"name"`
	Kind  SpanKind `json:"kind"`
	Start float64  `json:"start"`
	End   float64  `json:"end"`
	// Locators, populated where meaningful for the kind.
	Restart   int `json:"restart,omitempty"`
	Iteration int `json:"iteration,omitempty"`
	Level     int `json:"level,omitempty"`
	Block     int `json:"block,omitempty"`
	// Payload fields copied off the closing event.
	Objective  float64 `json:"objective,omitempty"`
	Improved   bool    `json:"improved,omitempty"`
	Points     int     `json:"points,omitempty"`
	Candidates int     `json:"candidates,omitempty"`
	Dense      int     `json:"dense,omitempty"`
	Reason     string  `json:"reason,omitempty"`
	Children   []*Span `json:"children,omitempty"`
}

// Duration is the span's extent in seconds.
func (s *Span) Duration() float64 { return s.End - s.Start }

// Walk visits the span and all descendants depth-first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// SpanBuilder assembles the flat event stream back into the hierarchy
// it was emitted from: run → phases → restarts/levels/passes →
// iterations/blocks. It is both an Observer (stamping events with wall
// time as they arrive) and a replay sink (Add, with caller-supplied
// timestamps, for analyzing recorded traces — replaying a trace yields
// the same tree the live observer would have built). Safe for
// concurrent use.
type SpanBuilder struct {
	mu       sync.Mutex
	origin   time.Time
	root     *Span
	phase    *Span
	level    *Span
	restarts map[int]*Span
	passes   map[string]*Span
}

// NewSpanBuilder returns an empty builder.
func NewSpanBuilder() *SpanBuilder {
	return &SpanBuilder{restarts: map[int]*Span{}, passes: map[string]*Span{}}
}

// Observe implements Observer, stamping the event with wall time
// relative to the first event observed.
func (b *SpanBuilder) Observe(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	if b.origin.IsZero() {
		b.origin = now
	}
	b.add(now.Sub(b.origin).Seconds(), e)
}

// Add feeds one event at an explicit time offset (seconds since the
// trace origin), for replaying recorded traces.
func (b *SpanBuilder) Add(t float64, e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.add(t, e)
}

// ensureRoot synthesizes a run span when events arrive before (or
// without) EvRunStart, so partial traces still build a tree.
func (b *SpanBuilder) ensureRoot(t float64) *Span {
	if b.root == nil {
		b.root = &Span{Name: "run", Kind: SpanRun, Start: t, End: t}
	}
	return b.root
}

// parent returns the innermost open container span.
func (b *SpanBuilder) parent(t float64) *Span {
	if b.level != nil {
		return b.level
	}
	if b.phase != nil {
		return b.phase
	}
	return b.ensureRoot(t)
}

func (b *SpanBuilder) add(t float64, e Event) {
	switch e.Type {
	case EvRunStart:
		if b.root == nil {
			b.root = &Span{Kind: SpanRun, Start: t}
		}
		b.root.Name = "run"
		if e.Algorithm != "" {
			b.root.Name = "run:" + e.Algorithm
		}
		b.root.Start, b.root.End = t, t
		b.root.Points = e.Points

	case EvRunEnd:
		r := b.ensureRoot(t)
		r.End = t
		r.Objective = e.Objective

	case EvPhaseStart:
		p := &Span{Name: "phase:" + e.Phase, Kind: SpanPhase, Start: t, End: t}
		r := b.ensureRoot(t)
		r.Children = append(r.Children, p)
		b.phase, b.level = p, nil
		b.passes = map[string]*Span{}

	case EvPhaseEnd:
		if b.phase != nil {
			b.phase.End = t
			b.phase = nil
			b.level = nil
			b.passes = map[string]*Span{}
		}

	case EvRestartStart:
		s := &Span{Name: restartName(e.Restart), Kind: SpanRestart, Restart: e.Restart, Start: t, End: t}
		b.parent(t).Children = append(b.parent(t).Children, s)
		b.restarts[e.Restart] = s

	case EvRestartEnd:
		if s := b.restart(t, e.Restart); s != nil {
			s.End = t
			s.Objective = e.Objective
			s.Iteration = e.Iteration
			delete(b.restarts, e.Restart)
		}

	case EvIteration:
		s := b.restart(t, e.Restart)
		start := t - e.Seconds
		if e.Seconds == 0 || start < s.Start {
			start = t
		}
		it := &Span{
			Name: "iteration", Kind: SpanIteration,
			Restart: e.Restart, Iteration: e.Iteration,
			Start: start, End: t,
			Objective: e.Objective, Improved: e.Improved,
		}
		s.Children = append(s.Children, it)
		if t > s.End {
			s.End = t
		}

	case EvMedoidSwap:
		s := b.restart(t, e.Restart)
		s.Children = append(s.Children, &Span{
			Name: "medoid_swap", Kind: SpanMark,
			Restart: e.Restart, Iteration: e.Iteration,
			Start: t, End: t,
		})

	case EvLevelStart:
		l := &Span{Name: levelName(e.Level), Kind: SpanLevel, Level: e.Level, Start: t, End: t}
		if b.phase != nil {
			b.phase.Children = append(b.phase.Children, l)
		} else {
			r := b.ensureRoot(t)
			r.Children = append(r.Children, l)
		}
		b.level = l

	case EvLevelEnd:
		if b.level != nil {
			b.level.End = t
			b.level.Candidates = e.Candidates
			b.level.Dense = e.Dense
			b.level = nil
		}

	case EvBlock:
		start := t - e.Seconds
		if start < 0 {
			start = 0
		}
		pass := b.pass(t, e.Phase, start)
		pass.Children = append(pass.Children, &Span{
			Name: "block", Kind: SpanBlock,
			Block: e.Block, Points: e.Points,
			Start: start, End: t,
		})
		if t > pass.End {
			pass.End = t
		}

	case EvStall:
		b.parent(t).Children = append(b.parent(t).Children, &Span{
			Name: "stall", Kind: SpanMark, Reason: e.Reason,
			Restart: e.Restart, Iteration: e.Iteration,
			Start: t, End: t,
		})
	}
}

func restartName(r int) string { return "restart " + itoa(r) }
func levelName(l int) string   { return "level " + itoa(l) }

// itoa avoids importing strconv in the hot event path for two small
// formatting sites.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// restart returns the open span for a restart index, synthesizing one
// (partial traces, replay of truncated files) when absent.
func (b *SpanBuilder) restart(t float64, idx int) *Span {
	if s, ok := b.restarts[idx]; ok {
		return s
	}
	s := &Span{Name: restartName(idx), Kind: SpanRestart, Restart: idx, Start: t, End: t}
	b.parent(t).Children = append(b.parent(t).Children, s)
	b.restarts[idx] = s
	return s
}

// pass returns the open pass span for a pass name,
// get-or-create under the innermost open container.
func (b *SpanBuilder) pass(t float64, name string, start float64) *Span {
	if p, ok := b.passes[name]; ok {
		return p
	}
	p := &Span{Name: "pass:" + name, Kind: SpanPass, Start: start, End: t}
	b.parent(t).Children = append(b.parent(t).Children, p)
	b.passes[name] = p
	return p
}

// Root returns the assembled span tree (nil before any event). Dangling
// open spans are extended to cover their children, so trees from
// truncated traces are still well-formed intervals.
func (b *SpanBuilder) Root() *Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.root == nil {
		return nil
	}
	extend(b.root)
	return b.root
}

// extend grows every span to at least cover its children.
func extend(s *Span) float64 {
	end := s.End
	for _, c := range s.Children {
		if ce := extend(c); ce > end {
			end = ce
		}
	}
	s.End = end
	return end
}

// CriticalPath returns the chain of dominant children from the root
// down: at every node, the child whose duration is largest. This is the
// sequence of spans that bounded the run's wall clock — shortening
// anything off this path cannot shorten the run. Marks (zero-duration
// annotations) are never on the path.
func (b *SpanBuilder) CriticalPath() []*Span {
	root := b.Root()
	if root == nil {
		return nil
	}
	var path []*Span
	for s := root; s != nil; {
		path = append(path, s)
		var next *Span
		for _, c := range s.Children {
			if c.Kind == SpanMark {
				continue
			}
			if next == nil || c.Duration() > next.Duration() {
				next = c
			}
		}
		s = next
	}
	return path
}
