// Package obs is the observability substrate of this repository: a
// dependency-free (standard library only) layer of structured run
// events, cheap hot-path counters, machine-readable run reports and
// profiling hooks that the clustering algorithms and their CLIs share.
//
// The design keeps the disabled state free. Algorithms accept a nil
// Observer, and every emission site guards on that nil before building
// an Event, so an uninstrumented run pays nothing for the event layer.
// Hot-path counters (see Counters) are plain atomics that the
// algorithms update in per-worker batches — one atomic add per chunk of
// points, not per point — so they stay on even when no observer is
// attached and a finished run can always account for its work.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventType discriminates the structured events of a run.
type EventType string

// Event types emitted by the PROCLUS and CLIQUE implementations.
const (
	// EvRunStart opens a run; Points and Dims carry the input shape.
	EvRunStart EventType = "run_start"
	// EvRunEnd closes a run; Objective, Clusters, Outliers and Seconds
	// summarize it.
	EvRunEnd EventType = "run_end"
	// EvPhaseStart and EvPhaseEnd bracket a named algorithm phase
	// (PROCLUS: initialize/iterate/refine; CLIQUE:
	// histogram/search/report). EvPhaseEnd carries Seconds.
	EvPhaseStart EventType = "phase_start"
	EvPhaseEnd   EventType = "phase_end"
	// EvRestartStart and EvRestartEnd bracket one hill-climb restart;
	// EvRestartEnd carries the restart's iteration count (Iteration),
	// best Objective and Seconds.
	EvRestartStart EventType = "restart_start"
	EvRestartEnd   EventType = "restart_end"
	// EvIteration reports one hill-climbing trial: its Objective, the
	// running Best, and whether the trial Improved on it.
	EvIteration EventType = "iteration"
	// EvMedoidSwap reports a bad-medoid replacement; Replaced lists the
	// replaced positions within the medoid set.
	EvMedoidSwap EventType = "medoid_swap"
	// EvLevelStart and EvLevelEnd bracket one CLIQUE lattice level;
	// EvLevelEnd carries the Candidates generated and Dense units kept.
	EvLevelStart EventType = "level_start"
	EvLevelEnd   EventType = "level_end"
	// EvBlock reports one completed block of a pass: Phase names the
	// pass, Block is the 1-based block index within it, Points the
	// block's point count and Seconds its latency. Streamed runs emit
	// one per block of their passes over the source, and report their
	// sample read as the one block of a "sample" pass; PROCLUS reports
	// its candidate-table build, in memory and streamed, as the one
	// block of a "candidates" pass.
	EvBlock EventType = "block"
	// EvStall reports a convergence stall detected by a Watchdog:
	// Reason distinguishes a no-improvement streak ("no_improve", with
	// Restart/Iteration locating it) from a wall-clock deadline with no
	// progress events ("deadline"). Seconds carries the streak length
	// in iterations or the deadline in seconds, respectively.
	EvStall EventType = "stall"
)

// Stall reasons carried in Event.Reason on EvStall.
const (
	StallNoImprove = "no_improve"
	StallDeadline  = "deadline"
)

// Event is one structured observation of a run in progress. It is a
// single flat record — unused fields stay zero and are omitted from
// JSON — so observers can switch on Type without type assertions.
type Event struct {
	Type      EventType `json:"type"`
	Algorithm string    `json:"algorithm,omitempty"`
	Phase     string    `json:"phase,omitempty"`
	// Restart and Iteration locate hill-climbing events (1-based).
	Restart   int `json:"restart,omitempty"`
	Iteration int `json:"iteration,omitempty"`
	// Level is the CLIQUE lattice level (subspace dimensionality).
	Level int `json:"level,omitempty"`
	// Block is the 1-based block index within a pass (EvBlock).
	Block int `json:"block,omitempty"`
	// Reason qualifies an EvStall event (StallNoImprove, StallDeadline).
	Reason string `json:"reason,omitempty"`
	// Objective is the event's objective value; Best the running
	// minimum; Improved whether this trial lowered it.
	Objective float64 `json:"objective,omitempty"`
	Best      float64 `json:"best,omitempty"`
	Improved  bool    `json:"improved,omitempty"`
	// Replaced lists medoid positions substituted by a swap.
	Replaced []int `json:"replaced,omitempty"`
	// Candidates and Dense count a CLIQUE level's candidate and
	// surviving dense units; Candidates also carries the candidate
	// medoid count on the PROCLUS initialize phase end.
	Candidates int `json:"candidates,omitempty"`
	Dense      int `json:"dense,omitempty"`
	// Points and Dims carry the input shape on run start.
	Points int `json:"points,omitempty"`
	Dims   int `json:"dims,omitempty"`
	// Clusters and Outliers summarize the output on run end.
	Clusters int `json:"clusters,omitempty"`
	Outliers int `json:"outliers,omitempty"`
	// Seconds is the duration of the closed span (phase, restart, run).
	Seconds float64 `json:"seconds,omitempty"`
}

// Observer receives structured run events. Implementations must be
// safe for concurrent use; the algorithms may emit from worker
// goroutines. A nil Observer disables event emission entirely.
type Observer interface {
	Observe(Event)
}

// Multi fans events out to every non-nil observer in order. It returns
// nil when none remain — preserving the nil-observer fast path — and
// the observer itself when only one remains.
func Multi(observers ...Observer) Observer {
	var kept []Observer
	for _, o := range observers {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multi(kept)
}

type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// JSONTracer is an Observer that writes one JSON object per event —
// the event's fields plus a t_ms offset from tracer creation — to an
// io.Writer. The output is JSON-lines, ready for jq or any log
// pipeline. Safe for concurrent use.
type JSONTracer struct {
	mu    sync.Mutex
	enc   *json.Encoder
	start time.Time
	err   error
}

// NewJSONTracer returns a tracer writing JSON lines to w.
func NewJSONTracer(w io.Writer) *JSONTracer {
	return &JSONTracer{enc: json.NewEncoder(w), start: time.Now()}
}

// Observe implements Observer.
func (t *JSONTracer) Observe(e Event) {
	rec := struct {
		TMS float64 `json:"t_ms"`
		Event
	}{Event: e}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec.TMS = float64(time.Since(t.start).Microseconds()) / 1e3
	if err := t.enc.Encode(rec); err != nil && t.err == nil {
		t.err = err
	}
}

// Err returns the first write error the tracer encountered, if any.
func (t *JSONTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// ProgressLogger is an Observer that renders selected events as
// human-readable progress lines, suitable for a terminal's stderr. Per
// -trial iteration events are reported only when they improve the
// objective, keeping the log proportional to progress rather than to
// work. Safe for concurrent use.
type ProgressLogger struct {
	mu sync.Mutex
	w  io.Writer
}

// NewProgressLogger returns a progress logger writing to w.
func NewProgressLogger(w io.Writer) *ProgressLogger {
	return &ProgressLogger{w: w}
}

// Observe implements Observer.
func (l *ProgressLogger) Observe(e Event) {
	var line string
	switch e.Type {
	case EvRunStart:
		line = fmt.Sprintf("[%s] run start: %d points × %d dims", e.Algorithm, e.Points, e.Dims)
	case EvPhaseEnd:
		line = fmt.Sprintf("[%s] phase %s done in %.3fs", e.Algorithm, e.Phase, e.Seconds)
	case EvRestartEnd:
		line = fmt.Sprintf("[%s] restart %d: %d iterations, best objective %.4f (%.3fs)",
			e.Algorithm, e.Restart, e.Iteration, e.Objective, e.Seconds)
	case EvIteration:
		if !e.Improved {
			return
		}
		line = fmt.Sprintf("[%s] restart %d iteration %d: objective ↓ %.4f",
			e.Algorithm, e.Restart, e.Iteration, e.Objective)
	case EvLevelEnd:
		line = fmt.Sprintf("[%s] level %d: %d candidates → %d dense units (%.3fs)",
			e.Algorithm, e.Level, e.Candidates, e.Dense, e.Seconds)
	case EvStall:
		switch e.Reason {
		case StallDeadline:
			line = fmt.Sprintf("[%s] STALL: no progress events for %.1fs deadline", e.Algorithm, e.Seconds)
		default:
			line = fmt.Sprintf("[%s] STALL: restart %d stuck for %.0f iterations (at iteration %d)",
				e.Algorithm, e.Restart, e.Seconds, e.Iteration)
		}
	case EvRunEnd:
		line = fmt.Sprintf("[%s] run end: objective %.4f, %d clusters, %d outliers in %.3fs",
			e.Algorithm, e.Objective, e.Clusters, e.Outliers, e.Seconds)
	default:
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintln(l.w, line)
}
