// Command proclus-bench regenerates the tables and figures of §4 of the
// PROCLUS paper. Each experiment prints the same rows or series the
// paper reports; see DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured comparisons.
//
// Usage:
//
//	proclus-bench -experiment all          # reduced scale, minutes
//	proclus-bench -experiment table3
//	proclus-bench -experiment fig7 -full   # paper-scale sizes (slow)
//	proclus-bench -experiment table1,table2 -n 5000
//	proclus-bench -experiment all -progress
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"proclus/internal/experiments"
	"proclus/internal/obs/cliflags"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "proclus-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("proclus-bench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		exp        = fs.String("experiment", "all", "comma-separated subset of table1..table5, fig7..fig9, lsweep, oriented, or all")
		full       = fs.Bool("full", false, "paper-scale workloads (N = 100k+; CLIQUE runs take minutes to hours)")
		override   = fs.Int("n", 0, "override the workload size (0 = scale defaults)")
		csvDir     = fs.String("csvdir", "", "also write each experiment's data as <csvdir>/<id>.csv")
		seed       = fs.Uint64("seed", 3, "random seed")
		workers    = fs.Int("workers", 0, "goroutine budget per PROCLUS/CLIQUE run (0 = GOMAXPROCS); results are identical for any value")
		reportPath = fs.String("report", "", "write per-experiment timing records as a JSON array to this path")
		stream     = fs.Bool("stream", false, "run the accuracy tables and fig7 out of core: inputs spill to temporary binary files and the streamed engines cluster them in bounded memory")
		blockPts   = fs.Int("block-points", 0, "points per streamed block (0 = default); only with -stream")
	)
	// -report here keeps its historical timing-array semantics, so the
	// shared flag set skips its own -report.
	obsFlags := cliflags.Register(fs, cliflags.WithoutReport(), cliflags.WithStall())
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if err := sess.Close(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	exportCSV := func(id string, data csvWriter) error {
		if *csvDir == "" || data == nil {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, id+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := data.WriteCSV(f); err != nil {
			return err
		}
		return f.Close()
	}

	type runner struct {
		id  string
		run func() (*experiments.Report, csvWriter, error)
	}
	caseN := 20000
	figN := 10000
	fig7Ns := []int{10000, 20000, 30000, 40000, 50000}
	if *full {
		caseN = 100000
		figN = 100000
		fig7Ns = []int{100000, 200000, 300000, 400000, 500000}
	}
	if *override > 0 {
		caseN = *override
		figN = *override
		fig7Ns = []int{*override, 2 * *override}
	}
	caseParams := experiments.CaseParams{
		N: caseN, Seed: *seed, Workers: *workers, Observer: sess.Observer,
		Stream: *stream, BlockPoints: *blockPts,
	}

	runners := []runner{
		{"table1", func() (*experiments.Report, csvWriter, error) {
			d, r, err := experiments.Table1(caseParams)
			return r, d, err
		}},
		{"table2", func() (*experiments.Report, csvWriter, error) {
			d, r, err := experiments.Table2(caseParams)
			return r, d, err
		}},
		{"table3", func() (*experiments.Report, csvWriter, error) {
			d, r, err := experiments.Table3(caseParams)
			return r, d, err
		}},
		{"table4", func() (*experiments.Report, csvWriter, error) {
			d, r, err := experiments.Table4(caseParams)
			return r, d, err
		}},
		{"table5", func() (*experiments.Report, csvWriter, error) {
			p := experiments.Table5Params{Seed: *seed, Workers: *workers, Observer: sess.Observer}
			if *full {
				p.N = 100000
				p.Dims = 20
				p.ClusterDims = 7
				p.Taus = []float64{0.005, 0.008, 0.002}
				p.FixedTau = 0.001
			}
			if *override > 0 {
				p.N = *override
				p.Dims = 10
				p.ClusterDims = 4
			}
			d, r, err := experiments.Table5(p)
			return r, d, err
		}},
		{"fig7", func() (*experiments.Report, csvWriter, error) {
			d, r, err := experiments.Figure7(experiments.Figure7Params{
				Ns: fig7Ns, WithClique: true, Seed: *seed, Workers: *workers,
				Observer: sess.Observer, Stream: *stream, BlockPoints: *blockPts,
			})
			return r, d, err
		}},
		{"fig8", func() (*experiments.Report, csvWriter, error) {
			p := experiments.Figure8Params{
				N: figN, WithClique: true, Seed: *seed, Workers: *workers,
				Observer: sess.Observer,
			}
			if *full {
				p.Dims = 20
			}
			if *override > 0 {
				p.Ls = []int{4, 5}
			}
			d, r, err := experiments.Figure8(p)
			return r, d, err
		}},
		{"fig9", func() (*experiments.Report, csvWriter, error) {
			p := experiments.Figure9Params{N: figN, Seed: *seed, Workers: *workers, Observer: sess.Observer}
			if *override > 0 {
				p.Ds = []int{10, 20}
				p.Repeats = 1
			}
			d, r, err := experiments.Figure9(p)
			return r, d, err
		}},
		{"lsweep", func() (*experiments.Report, csvWriter, error) {
			p := experiments.LSweepParams{N: figN, Seed: *seed, Workers: *workers, Observer: sess.Observer}
			if *override > 0 {
				p.Dims = 10
				p.TrueL = 4
			}
			d, r, err := experiments.LSweep(p)
			return r, d, err
		}},
		{"oriented", func() (*experiments.Report, csvWriter, error) {
			p := experiments.OrientedParams{Seed: *seed, Workers: *workers, Observer: sess.Observer}
			if *override > 0 {
				p.N = *override
			}
			d, r, err := experiments.Oriented(p)
			return r, d, err
		}},
	}

	// -experiment accepts a comma-separated subset so one invocation can
	// cover several experiments without paying for all of them.
	want := strings.ToLower(*exp)
	wanted := map[string]bool{}
	for _, name := range strings.Split(want, ",") {
		if name = strings.TrimSpace(name); name != "" {
			wanted[name] = true
		}
	}
	all := wanted["all"]
	delete(wanted, "all")
	var records []benchRecord
	for _, r := range runners {
		if !all && !wanted[r.id] {
			continue
		}
		delete(wanted, r.id)
		start := time.Now()
		rep, data, err := r.run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		wall := time.Since(start)
		fmt.Fprintln(out, rep)
		// Phase timings come from core.Stats, measured inside PROCLUS;
		// the wall-clock line additionally includes dataset generation,
		// evaluation, and any CLIQUE baseline runs.
		if t := rep.Timing; t.Runs > 0 {
			fmt.Fprintf(out, "(%s proclus phases over %d run(s): init %s, iterate %s, refine %s — %s in-algorithm)\n",
				r.id, t.Runs,
				t.Init.Round(time.Millisecond), t.Iterate.Round(time.Millisecond),
				t.Refine.Round(time.Millisecond), t.Total().Round(time.Millisecond))
		}
		fmt.Fprintf(out, "(%s completed in %s wall clock, including generation and evaluation)\n\n",
			r.id, wall.Round(time.Millisecond))
		records = append(records, benchRecord{
			Experiment:     r.id,
			WallSeconds:    wall.Seconds(),
			ProclusRuns:    rep.Timing.Runs,
			InitSeconds:    rep.Timing.Init.Seconds(),
			IterateSeconds: rep.Timing.Iterate.Seconds(),
			RefineSeconds:  rep.Timing.Refine.Seconds(),
			PhaseSeconds:   rep.Timing.Total().Seconds(),
		})
		if err := exportCSV(r.id, data); err != nil {
			return fmt.Errorf("%s: exporting CSV: %w", r.id, err)
		}
	}
	if len(wanted) > 0 {
		unknown := make([]string, 0, len(wanted))
		for name := range wanted {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return fmt.Errorf("unknown experiment(s): %s", strings.Join(unknown, ", "))
	}
	if len(records) == 0 {
		return fmt.Errorf("no experiments selected by -experiment %q", *exp)
	}
	if *reportPath != "" {
		return writeBenchReport(*reportPath, records)
	}
	return nil
}

// benchRecord is one experiment's machine-readable timing summary.
// Phase fields cover only time inside PROCLUS runs; WallSeconds covers
// the whole experiment including generation and evaluation.
type benchRecord struct {
	Experiment     string  `json:"experiment"`
	WallSeconds    float64 `json:"wall_seconds"`
	ProclusRuns    int     `json:"proclus_runs"`
	InitSeconds    float64 `json:"init_seconds"`
	IterateSeconds float64 `json:"iterate_seconds"`
	RefineSeconds  float64 `json:"refine_seconds"`
	PhaseSeconds   float64 `json:"phase_seconds"`
}

func writeBenchReport(path string, records []benchRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csvWriter is implemented by every experiment's data type.
type csvWriter interface {
	WriteCSV(w io.Writer) error
}
