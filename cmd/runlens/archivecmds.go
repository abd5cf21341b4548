package main

// Archive subcommands: `runlens ls`, `runlens diff` and `runlens
// trend` consume the append-only run archive pcluster writes with
// -archive, turning single-run analysis into cross-run analysis —
// what changed between two runs, and when a counter first moved
// across the archive's history.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"proclus/internal/obs"
	"proclus/internal/obs/archive"
)

// openArchive opens the store named by -archive, the flag shared by
// every archive subcommand.
func openArchive(dir string) ([]archive.Entry, []archive.Problem, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("-archive is required")
	}
	st, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return nil, nil, err
	}
	return st.List()
}

// resolveRef maps a run reference to an entry: either an exact run ID,
// or "@N" counting back from the newest entry (@0 = newest, @1 = the
// one before it).
func resolveRef(es []archive.Entry, ref string) (archive.Entry, error) {
	if strings.HasPrefix(ref, "@") {
		n, err := strconv.Atoi(ref[1:])
		if err != nil || n < 0 {
			return archive.Entry{}, fmt.Errorf("bad run reference %q (want @0, @1, … or a run ID)", ref)
		}
		if n >= len(es) {
			return archive.Entry{}, fmt.Errorf("reference %s is out of range: archive holds %d entries", ref, len(es))
		}
		return es[len(es)-1-n], nil
	}
	for _, e := range es {
		if e.RunID == ref {
			return e, nil
		}
	}
	return archive.Entry{}, fmt.Errorf("run %q not found in archive", ref)
}

func printProblems(out io.Writer, probs []archive.Problem) {
	for _, p := range probs {
		fmt.Fprintf(out, "warning: skipping %s: %s\n", p.RunID, p.Err)
	}
}

// runLs lists the archive in deterministic (creation time, run ID)
// order, oldest first, with @N references for diff.
func runLs(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("runlens ls", flag.ContinueOnError)
	fs.SetOutput(out)
	dir := fs.String("archive", "", "run archive directory (written by pcluster -archive)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	es, probs, err := openArchive(*dir)
	if err != nil {
		return err
	}
	printProblems(out, probs)
	if len(es) == 0 {
		fmt.Fprintln(out, "archive is empty")
		return nil
	}
	fmt.Fprintf(out, "%-5s %-44s %-14s %-8s %-8s %12s\n",
		"ref", "run", "algorithm", "rev", "seed", "objective")
	for i, e := range es {
		fmt.Fprintf(out, "%-5s %-44s %-14s %-8s %-8d %12.4f\n",
			"@"+strconv.Itoa(len(es)-1-i), e.RunID, e.Report.Algorithm, rev(e), e.Report.Seed, e.Report.Objective)
	}
	return nil
}

// rev is an entry's git revision, or "-" when none was recorded.
func rev(e archive.Entry) string {
	if e.GitRev == "" {
		return "-"
	}
	return e.GitRev
}

// runDiff compares two archived runs' reports: every deterministic work
// counter and every quality index, under one relative threshold. Phase
// times are not compared, since wall time is not reproducible. Any
// delta makes the command exit non-zero, so CI can assert that two
// identical-seed runs reproduce exactly.
func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("runlens diff", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		dir     = fs.String("archive", "", "run archive directory (written by pcluster -archive)")
		workThr = fs.Float64("work-threshold", 0.01, "relative tolerance for counters and quality indices")
		quiet   = fs.Bool("q", false, "suppress the run headers, print only the deltas")
	)
	fs.Usage = func() {
		fmt.Fprint(out, "usage: runlens diff -archive dir <base> <candidate>\n"+
			"  runs are named by ID or by age: @0 is the newest entry, @1 the one before\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("want exactly two runs to compare, got %d", fs.NArg())
	}
	es, probs, err := openArchive(*dir)
	if err != nil {
		return err
	}
	printProblems(out, probs)
	baseEntry, err := resolveRef(es, fs.Arg(0))
	if err != nil {
		return err
	}
	candEntry, err := resolveRef(es, fs.Arg(1))
	if err != nil {
		return err
	}
	base, cand := baseEntry.Report, candEntry.Report
	if !*quiet {
		for _, side := range []struct {
			tag string
			e   archive.Entry
		}{{"base", baseEntry}, {"cand", candEntry}} {
			fmt.Fprintf(out, "%s  %s  %s rev %s seed %d objective %.4f\n",
				side.tag, side.e.RunID, side.e.Report.Algorithm, rev(side.e), side.e.Report.Seed, side.e.Report.Objective)
		}
		if base.Seed != cand.Seed {
			fmt.Fprintln(out, "note: seeds differ; counter deltas reflect the seed change, not necessarily a code change")
		}
		// Both config echoes were decoded from JSON, so they encode
		// again without error and with their keys sorted.
		bc, _ := json.Marshal(base.Config)
		cc, _ := json.Marshal(cand.Config)
		if !bytes.Equal(bc, cc) {
			fmt.Fprintln(out, "note: configs differ; counter deltas reflect the config change")
		}
		fmt.Fprintln(out)
	}
	regressions, improvements := compareReports(base, cand, *workThr)
	writeDeltas := func(header string, ds []delta) {
		if len(ds) == 0 {
			return
		}
		fmt.Fprintln(out, header)
		for _, d := range ds {
			var ratio float64
			if d.base > 0 {
				ratio = d.cand / d.base
			}
			fmt.Fprintf(out, "  %-10s %-28s %12.4g -> %-12.4g (%.2fx)\n",
				cand.Algorithm, d.metric, d.base, d.cand, ratio)
		}
	}
	writeDeltas("REGRESSIONS:", regressions)
	writeDeltas("improvements:", improvements)
	if len(regressions) == 0 {
		// testdata/golden_diff.txt pins this line byte for byte.
		fmt.Fprintln(out, "no regressions across 1 experiment(s)")
	}
	fmt.Fprintln(out)
	if n := len(regressions) + len(improvements); n > 0 {
		return fmt.Errorf("runs differ: %d metric(s) moved beyond threshold", n)
	}
	return nil
}

// delta is one metric whose value moved beyond threshold between two
// archived runs.
type delta struct {
	metric     string
	base, cand float64
}

// compareReports diffs cand against base. Every counter counterValues
// yields is compared, so new counters join the diff as they join the
// trend; a rise beyond threshold is a regression. Quality indices
// present on both sides invert the sense: a drop is the regression.
func compareReports(base, cand *obs.RunReport, threshold float64) (regressions, improvements []delta) {
	classify := func(metric string, b, c float64, higherIsBetter bool) {
		if b == 0 && c == 0 {
			return
		}
		worse, better := c > b*(1+threshold), b > c*(1+threshold)
		if higherIsBetter {
			worse, better = better, worse
		}
		d := delta{metric: metric, base: b, cand: c}
		switch {
		case worse:
			regressions = append(regressions, d)
		case better:
			improvements = append(improvements, d)
		}
	}
	bc, cc := counterValues(base.Counters), counterValues(cand.Counters)
	for _, name := range sortedKeys(bc, cc) {
		classify("counters/"+name, bc[name], cc[name], false)
	}
	for _, name := range sortedKeys(base.Quality, cand.Quality) {
		b, okB := base.Quality[name]
		c, okC := cand.Quality[name]
		if okB && okC {
			classify("quality/"+name, b, c, true)
		}
	}
	return regressions, improvements
}

// sortedKeys returns the union of the maps' keys in sorted order.
func sortedKeys(maps ...map[string]float64) []string {
	set := map[string]bool{}
	for _, m := range maps {
		for name := range m {
			set[name] = true
		}
	}
	return sortedNames(set)
}

// counterValues flattens a counter snapshot to (name, value) pairs via
// its JSON encoding, so new counters join the trend without touching
// this tool.
func counterValues(s obs.Snapshot) map[string]float64 {
	raw, err := json.Marshal(s)
	if err != nil {
		return nil
	}
	vals := map[string]float64{}
	_ = json.Unmarshal(raw, &vals)
	return vals
}

// runTrend prints each deterministic counter's and each phase's values
// across the archive in chronological order, then attributes the
// earliest movement: which counter moved first, and at which run. That
// is usually the root of a work regression — later counters often move
// as a consequence of the first.
func runTrend(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("runlens trend", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		dir     = fs.String("archive", "", "run archive directory (written by pcluster -archive)")
		last    = fs.Int("last", 0, "only the newest N entries (0 = all)")
		algo    = fs.String("algorithm", "", "only entries from this algorithm (e.g. proclus)")
		workThr = fs.Float64("work-threshold", 0.01, "relative change in a counter that counts as movement")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	es, probs, err := openArchive(*dir)
	if err != nil {
		return err
	}
	printProblems(out, probs)
	if *algo != "" {
		kept := es[:0]
		for _, e := range es {
			if e.Report.Algorithm == *algo {
				kept = append(kept, e)
			}
		}
		es = kept
	}
	if *last > 0 && len(es) > *last {
		es = es[len(es)-*last:]
	}
	if len(es) == 0 {
		fmt.Fprintln(out, "archive holds no matching entries")
		return nil
	}

	fmt.Fprintf(out, "== trend over %d archived run(s) ==\n", len(es))
	fmt.Fprintf(out, "%-4s %-44s %-14s %12s\n", "run", "id", "algorithm", "objective")
	for i, e := range es {
		fmt.Fprintf(out, "%-4d %-44s %-14s %12.4f\n", i, e.RunID, e.Report.Algorithm, e.Report.Objective)
	}
	fmt.Fprintln(out)

	// Collect every counter and phase name that appears anywhere, then
	// print each one's value per run in a fixed, sorted order. A phase
	// that a run entered more than once counts with its summed seconds.
	counters := make([]map[string]float64, len(es))
	phases := make([]map[string]float64, len(es))
	nameSet := map[string]bool{}
	phaseSet := map[string]bool{}
	for i, e := range es {
		counters[i] = counterValues(e.Report.Counters)
		for name := range counters[i] {
			nameSet[name] = true
		}
		phases[i] = map[string]float64{}
		for _, p := range e.Report.Phases {
			phases[i][p.Name] += p.Seconds
			phaseSet[p.Name] = true
		}
	}
	names := sortedNames(nameSet)
	fmt.Fprintln(out, "== counters ==")
	for _, name := range names {
		row := make([]string, len(es))
		for i := range es {
			row[i] = strconv.FormatFloat(counters[i][name], 'g', -1, 64)
		}
		fmt.Fprintf(out, "%-28s %s\n", name, strings.Join(row, "  "))
	}
	fmt.Fprintln(out)
	if phaseNames := sortedNames(phaseSet); len(phaseNames) > 0 {
		fmt.Fprintln(out, "== phase seconds ==")
		for _, name := range phaseNames {
			row := make([]string, len(es))
			for i := range es {
				row[i] = fmt.Sprintf("%.3f", phases[i][name])
			}
			fmt.Fprintf(out, "%-28s %s\n", name, strings.Join(row, "  "))
		}
		fmt.Fprintln(out)
	}

	// Regression attribution: the first run at which each counter moved
	// beyond threshold relative to the previous run, and among those the
	// earliest mover. Counters that never move are not listed.
	type move struct {
		name     string
		run      int
		from, to float64
	}
	var moves []move
	for _, name := range names {
		for i := 1; i < len(es); i++ {
			prev, cur := counters[i-1][name], counters[i][name]
			if moved(prev, cur, *workThr) {
				moves = append(moves, move{name: name, run: i, from: prev, to: cur})
				break
			}
		}
	}
	if len(moves) == 0 {
		fmt.Fprintln(out, "no counter moved beyond threshold across the archive")
		return nil
	}
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].run != moves[j].run {
			return moves[i].run < moves[j].run
		}
		return moves[i].name < moves[j].name
	})
	fmt.Fprintln(out, "== first movers ==")
	first := moves[0].run
	for _, mv := range moves {
		marker := ""
		if mv.run == first {
			marker = "  <- moved first"
		}
		fmt.Fprintf(out, "%-28s first moved at run %d (%s): %g -> %g%s\n",
			mv.name, mv.run, es[mv.run].RunID, mv.from, mv.to, marker)
	}
	return nil
}

// moved reports whether cur deviates from prev beyond the relative
// threshold (with an exact comparison when prev is zero).
func moved(prev, cur, threshold float64) bool {
	if prev == 0 {
		return cur != 0
	}
	ratio := cur / prev
	return ratio > 1+threshold || ratio < 1/(1+threshold)
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
