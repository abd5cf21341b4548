package obs_test

// Property test for the Chrome-trace exporter: a real seeded PROCLUS
// run with concurrent restarts must yield a trace where every duration
// span opened on a virtual thread is closed by a matching end event,
// spans nest in strict stack order per thread, and instants and the
// complete event of the candidate-table build fall inside an open
// span.

import (
	"bytes"
	"encoding/json"
	"testing"

	"proclus/internal/core"
	"proclus/internal/obs"
	"proclus/internal/synth"
)

type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	TID  int     `json:"tid"`
}

func TestChromeTraceSpansBalanceUnderConcurrentRestarts(t *testing.T) {
	ds, _, err := synth.Generate(synth.Config{
		N: 1500, Dims: 8, K: 3, FixedDims: 4, MinSizeFraction: 0.15, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tr := obs.NewChromeTracer(&buf)
	cfg := core.Config{K: 3, L: 4, Seed: 7, Workers: 4, Restarts: 4, Observer: tr}
	if _, err := core.Run(ds, cfg); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	// Per-tid span stacks: B pushes, E must close the innermost open
	// span with the same name, and timestamps must be non-decreasing.
	stacks := map[int][]string{}
	lastTS := map[int]float64{}
	phases := map[string]int{} // phase name → open count, must end at 0
	begins, tableBlocks := 0, 0
	for _, e := range trace.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if ts, ok := lastTS[e.TID]; ok && e.TS < ts {
			t.Fatalf("timestamps regress on tid %d: %v after %v (%s)", e.TID, e.TS, ts, e.Name)
		}
		lastTS[e.TID] = e.TS
		switch e.Ph {
		case "B":
			begins++
			stacks[e.TID] = append(stacks[e.TID], e.Name)
			phases[e.Name]++
		case "E":
			st := stacks[e.TID]
			if len(st) == 0 {
				t.Fatalf("end event %q on tid %d with no open span", e.Name, e.TID)
			}
			top := st[len(st)-1]
			if top != e.Name {
				t.Fatalf("span %q closed while %q is innermost on tid %d", e.Name, top, e.TID)
			}
			stacks[e.TID] = st[:len(st)-1]
			phases[e.Name]--
		case "i", "X":
			if len(stacks[e.TID]) == 0 {
				t.Errorf("event %q (ph %s) on tid %d outside any span", e.Name, e.Ph, e.TID)
			}
			if e.Ph == "X" && e.Name == "block:candidates" {
				tableBlocks++
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Errorf("tid %d ends with unclosed spans %v", tid, st)
		}
	}
	for name, open := range phases {
		if open != 0 {
			t.Errorf("span %q has %d unmatched begin events", name, open)
		}
	}
	if begins < 1+3+4 { // run + three phases + four restarts at minimum
		t.Errorf("trace has only %d spans; expected at least run, phases and restarts", begins)
	}
	if tableBlocks != 1 {
		t.Errorf("trace has %d candidate-table blocks, want 1", tableBlocks)
	}

	// Each restart must occupy its own virtual thread so its span can
	// never interleave illegally with a concurrent sibling.
	for _, e := range trace.TraceEvents {
		if e.Ph == "B" && len(e.Name) > 7 && e.Name[:7] == "restart" {
			if e.TID == 0 {
				t.Errorf("restart span %q landed on the main thread", e.Name)
			}
		}
	}
}
