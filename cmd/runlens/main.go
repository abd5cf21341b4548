// Command runlens analyzes recorded observability artifacts — the
// JSON-lines event traces written by -trace and the time-series
// snapshots written by -series — and prints what they say about a
// run's convergence: a run summary, a per-restart convergence table,
// the critical path through the span hierarchy, the straggler blocks
// of each streamed pass, any stalls the watchdog flagged, and the
// recorded series.
//
// With a run archive (written by pcluster's -archive flag) it also
// analyzes runs *over time*: `runlens ls` lists the archive, `runlens
// diff` compares two archived runs' deterministic counters and quality
// indices (exiting non-zero when they differ), and `runlens trend`
// tracks every counter across the archive and attributes which one
// moved first.
//
// Usage:
//
//	runlens trace.jsonl
//	runlens -top 5 trace.jsonl
//	runlens -series series.json
//	runlens -series series.json trace.jsonl
//	runlens ls -archive runs/
//	runlens diff -archive runs/ @1 @0
//	runlens diff -archive runs/ 20260808T120001.000000000Z-proclus @0
//	runlens trend -archive runs/ -algorithm proclus
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"proclus/internal/obs"
	"proclus/internal/obs/series"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "runlens: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "ls":
			return runLs(args[1:], out)
		case "diff":
			return runDiff(args[1:], out)
		case "trend":
			return runTrend(args[1:], out)
		}
	}
	fs := flag.NewFlagSet("runlens", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		seriesPath = fs.String("series", "", "time-series snapshot JSON to analyze (written by -series)")
		top        = fs.Int("top", 3, "straggler blocks to list per streamed pass")
	)
	fs.Usage = func() {
		fmt.Fprint(out, "usage: runlens [-series snapshot.json] [-top n] [trace.jsonl]\n"+
			"       runlens ls|diff|trend -archive dir [args]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	tracePath := fs.Arg(0)
	if tracePath == "" && *seriesPath == "" {
		fs.Usage()
		return fmt.Errorf("nothing to analyze: pass a trace file, -series, or both")
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one trace file, got %d", fs.NArg())
	}
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		err = analyzeTrace(out, f, *top)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", tracePath, err)
		}
	}
	if *seriesPath != "" {
		snap, err := series.ReadSnapshotFile(*seriesPath)
		if err != nil {
			return err
		}
		analyzeSeries(out, snap)
	}
	return nil
}

// traceLine is one record of a -trace file: the event plus the tracer's
// millisecond offset.
type traceLine struct {
	TMS float64 `json:"t_ms"`
	obs.Event
}

// trace is the parsed event stream plus the aggregates the report
// sections read.
type trace struct {
	events []traceLine
	spans  *obs.SpanBuilder
	stalls []obs.Event
}

func readTrace(r io.Reader) (*trace, error) {
	tr := &trace{spans: obs.NewSpanBuilder()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var rec traceLine
		if err := json.Unmarshal([]byte(raw), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if rec.Type == "" {
			return nil, fmt.Errorf("line %d: record has no event type", line)
		}
		tr.events = append(tr.events, rec)
		tr.spans.Add(rec.TMS/1e3, rec.Event)
		if rec.Type == obs.EvStall {
			tr.stalls = append(tr.stalls, rec.Event)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.events) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	return tr, nil
}

func analyzeTrace(out io.Writer, r io.Reader, top int) error {
	tr, err := readTrace(r)
	if err != nil {
		return err
	}
	printSummary(out, tr)
	printConvergence(out, tr)
	printCriticalPath(out, tr.spans)
	printStragglers(out, tr.spans, top)
	printStalls(out, tr.stalls)
	return nil
}

// restartStats accumulates one restart's convergence numbers.
type restartStats struct {
	restart   int
	iters     int
	accepted  int
	best      float64
	hasBest   bool
	seconds   float64
	completed bool
}

func printSummary(out io.Writer, tr *trace) {
	algorithm, phases := "", 0
	var points, dims, clusters, outliers, iterations int
	var objective, runSeconds float64
	stalled := len(tr.stalls) > 0
	ended := false
	for _, rec := range tr.events {
		switch rec.Type {
		case obs.EvRunStart:
			algorithm, points, dims = rec.Algorithm, rec.Points, rec.Dims
		case obs.EvPhaseEnd:
			phases++
		case obs.EvIteration:
			iterations++
		case obs.EvRunEnd:
			objective, clusters, outliers = rec.Objective, rec.Clusters, rec.Outliers
			runSeconds = rec.Seconds
			ended = true
		}
	}
	if algorithm == "" {
		algorithm = "unknown"
	}
	span := tr.events[len(tr.events)-1].TMS - tr.events[0].TMS
	fmt.Fprintf(out, "== run summary ==\n")
	fmt.Fprintf(out, "algorithm    %s\n", algorithm)
	if points > 0 {
		fmt.Fprintf(out, "dataset      %d points x %d dims\n", points, dims)
	}
	fmt.Fprintf(out, "events       %d over %.3fs (%d phases closed)\n",
		len(tr.events), span/1e3, phases)
	if iterations > 0 {
		fmt.Fprintf(out, "iterations   %d\n", iterations)
	}
	if ended {
		fmt.Fprintf(out, "finished     yes: objective %.4f, %d clusters, %d outliers in %.3fs\n",
			objective, clusters, outliers, runSeconds)
	} else {
		fmt.Fprintf(out, "finished     no (trace ends before run_end)\n")
	}
	if stalled {
		fmt.Fprintf(out, "stalled      yes (%d stall events, see below)\n", len(tr.stalls))
	}
	fmt.Fprintln(out)
}

func printConvergence(out io.Writer, tr *trace) {
	byRestart := map[int]*restartStats{}
	var order []int
	get := func(r int) *restartStats {
		rs := byRestart[r]
		if rs == nil {
			rs = &restartStats{restart: r}
			byRestart[r] = rs
			order = append(order, r)
		}
		return rs
	}
	for _, rec := range tr.events {
		switch rec.Type {
		case obs.EvIteration:
			rs := get(rec.Restart)
			rs.iters++
			if rec.Improved {
				rs.accepted++
			}
			if best := rec.Best; !rs.hasBest || best < rs.best {
				rs.best, rs.hasBest = best, true
			}
		case obs.EvRestartEnd:
			rs := get(rec.Restart)
			rs.best, rs.hasBest = rec.Objective, true
			rs.iters = rec.Iteration
			rs.seconds = rec.Seconds
			rs.completed = true
		}
	}
	if len(order) == 0 {
		return
	}
	sort.Ints(order)
	fmt.Fprintf(out, "== convergence ==\n")
	fmt.Fprintf(out, "%-8s %8s %9s %9s %12s %9s\n",
		"restart", "iters", "accepted", "rejected", "best", "seconds")
	for _, r := range order {
		rs := byRestart[r]
		best := "-"
		if rs.hasBest {
			best = fmt.Sprintf("%.4f", rs.best)
		}
		secs := "-"
		if rs.completed {
			secs = fmt.Sprintf("%.3f", rs.seconds)
		}
		fmt.Fprintf(out, "%-8d %8d %9d %9d %12s %9s\n",
			r, rs.iters, rs.accepted, rs.iters-rs.accepted, best, secs)
	}
	fmt.Fprintln(out)
}

func printCriticalPath(out io.Writer, b *obs.SpanBuilder) {
	path := b.CriticalPath()
	if len(path) == 0 {
		return
	}
	total := path[0].Duration()
	fmt.Fprintf(out, "== critical path ==\n")
	for depth, s := range path {
		share := 100.0
		if total > 0 {
			share = 100 * s.Duration() / total
		}
		fmt.Fprintf(out, "%s%-24s %9.3fs %5.1f%%\n",
			strings.Repeat("  ", depth), spanLabel(s), s.Duration(), share)
	}
	fmt.Fprintln(out)
}

func spanLabel(s *obs.Span) string {
	name := s.Name
	switch s.Kind {
	case obs.SpanIteration:
		name = fmt.Sprintf("iteration %d", s.Iteration)
	case obs.SpanBlock:
		name = fmt.Sprintf("block %d", s.Block)
	}
	return name
}

// blockRec is one block span located within its pass and phase.
type blockRec struct {
	phase, pass   string
	block, points int
	seconds       float64
}

func printStragglers(out io.Writer, b *obs.SpanBuilder, top int) {
	root := b.Root()
	if root == nil || top <= 0 {
		return
	}
	byPass := map[string][]blockRec{}
	var passOrder []string
	phase := ""
	root.Walk(func(s *obs.Span) {
		switch s.Kind {
		case obs.SpanPhase:
			phase = strings.TrimPrefix(s.Name, "phase:")
		case obs.SpanPass:
			pass := strings.TrimPrefix(s.Name, "pass:")
			key := phase + "/" + pass
			if _, ok := byPass[key]; !ok {
				byPass[key] = nil
				passOrder = append(passOrder, key)
			}
			for _, c := range s.Children {
				if c.Kind != obs.SpanBlock {
					continue
				}
				byPass[key] = append(byPass[key], blockRec{
					phase: phase, pass: pass,
					block: c.Block, points: c.Points, seconds: c.Duration(),
				})
			}
		}
	})
	if len(passOrder) == 0 {
		return
	}
	fmt.Fprintf(out, "== straggler blocks ==\n")
	for _, key := range passOrder {
		blocks := byPass[key]
		if len(blocks) == 0 {
			continue
		}
		var totalSecs float64
		var totalPts int
		for _, b := range blocks {
			totalSecs += b.seconds
			totalPts += b.points
		}
		fmt.Fprintf(out, "pass %-20s %4d blocks, %8d points, %8.3fs total, %8.4fs mean\n",
			key, len(blocks), totalPts, totalSecs, totalSecs/float64(len(blocks)))
		// Slowest first; ties break on block index so output is stable.
		sort.Slice(blocks, func(i, j int) bool {
			if blocks[i].seconds != blocks[j].seconds {
				return blocks[i].seconds > blocks[j].seconds
			}
			return blocks[i].block < blocks[j].block
		})
		n := top
		if n > len(blocks) {
			n = len(blocks)
		}
		for _, b := range blocks[:n] {
			ratio := 1.0
			if mean := totalSecs / float64(len(blocks)); mean > 0 {
				ratio = b.seconds / mean
			}
			fmt.Fprintf(out, "  block %-6d %8d points %9.4fs  %5.1fx mean\n",
				b.block, b.points, b.seconds, ratio)
		}
	}
	fmt.Fprintln(out)
}

func printStalls(out io.Writer, stalls []obs.Event) {
	if len(stalls) == 0 {
		return
	}
	fmt.Fprintf(out, "== stalls ==\n")
	for _, e := range stalls {
		switch e.Reason {
		case obs.StallDeadline:
			fmt.Fprintf(out, "deadline: no progress events for %.1fs\n", e.Seconds)
		default:
			fmt.Fprintf(out, "no_improve: restart %d stuck for %.0f iterations (at iteration %d)\n",
				e.Restart, e.Seconds, e.Iteration)
		}
	}
	fmt.Fprintln(out)
}

func analyzeSeries(out io.Writer, snap series.StoreSnapshot) {
	if len(snap) == 0 {
		fmt.Fprintf(out, "== series ==\n(empty snapshot)\n")
		return
	}
	fmt.Fprintf(out, "== series ==\n")
	for _, s := range snap {
		if len(s.Points) == 0 {
			continue
		}
		min, max := s.Points[0].V, s.Points[0].V
		for _, p := range s.Points[1:] {
			if p.V < min {
				min = p.V
			}
			if p.V > max {
				max = p.V
			}
		}
		last := s.Points[len(s.Points)-1]
		kept := fmt.Sprintf("%d", s.Total)
		if s.Total > int64(len(s.Points)) {
			kept = fmt.Sprintf("last %d of %d", len(s.Points), s.Total)
		}
		fmt.Fprintf(out, "%-44s %14s points  last(x=%g) %.6g  min %.6g  max %.6g\n",
			seriesLabel(s), kept, last.X, last.V, min, max)
	}
}

func seriesLabel(s series.SeriesSnapshot) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}
