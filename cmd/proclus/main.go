// Command proclus runs the PROCLUS projected clustering algorithm on a
// dataset file and reports the discovered clusters, their dimension
// sets, and — when the input carries ground-truth labels — the confusion
// matrix and external indices of §4.2 of the paper.
//
// Usage:
//
//	proclus -in data.csv -labels -k 5 -l 7
//	proclus -in data.bin -k 5 -l 7 -assign out.csv
//	proclus -in data.bin -k 5 -sweepl 2:9     # try a range of l values
//	proclus -in data.bin -k 5 -l 7 -report run.json -trace trace.jsonl
//	proclus -in data.bin -k 5 -l 7 -archive runs/   # append to the run archive
//	proclus -in data.bin -k 5 -l 7 -metrics-addr 127.0.0.1:9187
//	proclus -in data.bin -k 5 -l 7 -chrometrace trace.json
//	proclus -in data.bin -k 5 -l 7 -cpuprofile cpu.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"proclus/internal/core"
	"proclus/internal/dataset"
	"proclus/internal/eval"
	"proclus/internal/obs/cliflags"
	"proclus/internal/registry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "proclus: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("proclus", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		in        = fs.String("in", "", "input dataset (.csv or binary); required")
		hasLabels = fs.Bool("labels", false, "CSV input has a trailing ground-truth label column")
		k         = fs.Int("k", 5, "number of clusters")
		l         = fs.Int("l", 0, "average dimensions per cluster; required unless -sweepl is set")
		sweepL    = fs.String("sweepl", "", "sweep l over a min:max range and report the objective curve")
		sweepK    = fs.String("sweepk", "", "sweep k over a min:max range and report the objective curve")
		seed      = fs.Uint64("seed", 1, "random seed")
		workers   = fs.Int("workers", 0, "goroutine budget: concurrent restarts plus per-pass parallelism (0 = GOMAXPROCS); results are identical for any value")
		normalize = fs.String("normalize", "", "rescale dimensions before clustering: minmax or zscore")
		assignOut = fs.String("assign", "", "optional path for a point→cluster assignment CSV")
		stream    = fs.Bool("stream", false, "cluster the input out of core: binary input only, full-data passes stream in blocks so resident memory is O(sample + block) instead of O(N·d)")
		blockPts  = fs.Int("block-points", 0, "points per streamed block (0 = default); only with -stream")
		kernel    = fs.String("kernel", "pruned", "exact distance-kernel tier: pruned (early abandonment + packed medoid rows, bit-identical output) or naive (full evaluation)")
	)
	obsFlags := cliflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}
	if *l == 0 && *sweepL == "" {
		fs.Usage()
		return fmt.Errorf("one of -l or -sweepl is required")
	}
	kernelMode, err := core.ParseKernelMode(*kernel)
	if err != nil {
		return err
	}
	if *stream {
		switch {
		case *normalize != "":
			return fmt.Errorf("-stream is incompatible with -normalize: rescaling needs the matrix in memory")
		case *sweepL != "" || *sweepK != "":
			return fmt.Errorf("-stream is incompatible with -sweepl/-sweepk: sweeps rerun over the in-memory dataset")
		case strings.HasSuffix(strings.ToLower(*in), ".csv"):
			return fmt.Errorf("-stream requires the binary dataset format (convert with datagen or dsstat)")
		}
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
	// Sweeps rerun many configs through core.SweepL/SweepK and stay on
	// the direct entry points; single runs route through the algorithm
	// registry (bit-identical to the direct call — the registry's
	// metamorphic suite pins this).
	cfgFor := func() core.Config {
		return core.Config{
			K: *k, L: *l, Seed: *seed, Workers: *workers,
			Kernel:   kernelMode,
			Observer: sess.Observer, Metrics: sess.Metrics, Series: sess.Series,
		}
	}
	rcfg := registry.Config{
		K: *k, L: *l, Seed: *seed, Workers: *workers,
		Kernel:   kernelMode,
		Observer: sess.Observer, Metrics: sess.Metrics, Series: sess.Series,
	}
	// The run context flows through the session so the stall watchdog
	// (-stall-cancel) can abort a wedged run.
	ctx, cancel := sess.Context(context.Background())
	defer cancel()
	if *stream {
		return runStreamed(ctx, out, sess, *in, *blockPts, rcfg, obsFlags.Report, *assignOut)
	}
	ds, err := dataset.LoadFile(*in, *hasLabels)
	if err != nil {
		return err
	}
	switch *normalize {
	case "":
	case "minmax":
		if _, _, err := ds.MinMaxScale(0, 100); err != nil {
			return err
		}
	case "zscore":
		ds.Standardize()
	default:
		return fmt.Errorf("unknown -normalize mode %q (want minmax or zscore)", *normalize)
	}
	cfg := cfgFor()
	report := func(res *core.Result) error {
		return finishRun(sess, obsFlags.Report, res, *in, ds.Labeled(), nil)
	}

	if *sweepL != "" {
		return runSweepL(out, ds, cfg, *sweepL, report)
	}
	if *sweepK != "" {
		return runSweepK(out, ds, cfg, *sweepK, report)
	}

	start := time.Now()
	m, err := registry.Fit(ctx, "proclus", registry.Source{Dataset: ds}, rcfg)
	if err != nil {
		return err
	}
	res := m.Unwrap().(*core.Result)
	elapsed := time.Since(start)

	fmt.Fprintf(out, "PROCLUS: %d points × %d dims, k=%d l=%d — %s (%d trials)\n",
		ds.Len(), ds.Dims(), *k, *l, elapsed.Round(time.Millisecond), res.Iterations)
	fmt.Fprintf(out, "objective (avg segmental distance to centroid): %.4f\n\n", res.Objective)
	fmt.Fprintf(out, "%-8s %-40s %10s\n", "Cluster", "Dimensions (1-based)", "Points")
	for i, cl := range res.Clusters {
		fmt.Fprintf(out, "%-8d %-40s %10d\n", i+1, fmt.Sprint(oneBased(cl.Dimensions)), len(cl.Members))
	}
	fmt.Fprintf(out, "%-8s %-40s %10d\n", "Outliers", "-", res.NumOutliers())

	var quality map[string]float64
	if ds.Labeled() {
		cm, err := eval.NewConfusion(eval.LabelsFromDataset(ds), res.Assignments,
			len(res.Clusters), ds.NumLabels())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nconfusion matrix (output rows × input columns):\n%s", cm)
		fmt.Fprintf(out, "purity: %.3f", cm.Purity())
		quality = map[string]float64{"purity": cm.Purity()}
		if ari, err := eval.AdjustedRandIndex(ds.Labels(), res.Assignments); err == nil {
			fmt.Fprintf(out, "   ARI: %.3f", ari)
			quality["ari"] = ari
		}
		if nmi, err := eval.NormalizedMutualInfo(ds.Labels(), res.Assignments); err == nil {
			fmt.Fprintf(out, "   NMI: %.3f", nmi)
			quality["nmi"] = nmi
		}
		fmt.Fprintln(out)
	}

	if *assignOut != "" {
		if err := writeAssignments(*assignOut, res.Assignments); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nassignments written to %s\n", *assignOut)
	}
	return finishRun(sess, obsFlags.Report, res, *in, ds.Labeled(), quality)
}

// runStreamed clusters a binary dataset file out of core via the
// registry's streamed path (core.RunStream underneath): the hill climb
// works on the resident medoid sample and every full-data stage streams
// the file in blocks, so resident memory stays O(sample + block)
// however large the file is. Labeled inputs still get the confusion
// matrix and external indices — the label column is scanned separately
// without loading the points.
func runStreamed(ctx context.Context, out io.Writer, sess *cliflags.Session, in string, blockPoints int, cfg registry.Config, reportPath, assignOut string) error {
	src, err := dataset.OpenFileSource(in, blockPoints)
	if err != nil {
		return err
	}
	start := time.Now()
	m, err := registry.Fit(ctx, "proclus", registry.Source{Stream: src}, cfg)
	if err != nil {
		return err
	}
	res := m.Unwrap().(*core.Result)
	elapsed := time.Since(start)

	fmt.Fprintf(out, "PROCLUS (streamed, %d-point blocks): %d points × %d dims, k=%d l=%d — %s (%d trials)\n",
		src.BlockPoints(), src.Len(), src.Dims(), cfg.K, cfg.L, elapsed.Round(time.Millisecond), res.Iterations)
	fmt.Fprintf(out, "objective (avg segmental distance to centroid): %.4f\n\n", res.Objective)
	fmt.Fprintf(out, "%-8s %-40s %10s\n", "Cluster", "Dimensions (1-based)", "Points")
	for i, cl := range res.Clusters {
		fmt.Fprintf(out, "%-8d %-40s %10d\n", i+1, fmt.Sprint(oneBased(cl.Dimensions)), len(cl.Members))
	}
	fmt.Fprintf(out, "%-8s %-40s %10d\n", "Outliers", "-", res.NumOutliers())

	var quality map[string]float64
	if src.Labeled() {
		labels, err := dataset.ScanLabels(in)
		if err != nil {
			return err
		}
		numLabels := 0
		for _, l := range labels {
			if l+1 > numLabels {
				numLabels = l + 1
			}
		}
		cm, err := eval.NewConfusion(labels, res.Assignments, len(res.Clusters), numLabels)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nconfusion matrix (output rows × input columns):\n%s", cm)
		fmt.Fprintf(out, "purity: %.3f", cm.Purity())
		quality = map[string]float64{"purity": cm.Purity()}
		if ari, err := eval.AdjustedRandIndex(labels, res.Assignments); err == nil {
			fmt.Fprintf(out, "   ARI: %.3f", ari)
			quality["ari"] = ari
		}
		if nmi, err := eval.NormalizedMutualInfo(labels, res.Assignments); err == nil {
			fmt.Fprintf(out, "   NMI: %.3f", nmi)
			quality["nmi"] = nmi
		}
		fmt.Fprintln(out)
	}

	if assignOut != "" {
		if err := writeAssignments(assignOut, res.Assignments); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nassignments written to %s\n", assignOut)
	}
	return finishRun(sess, reportPath, res, in, src.Labeled(), quality)
}

// finishRun writes res's run report to path (empty path skips the
// file), stamping the dataset's provenance, which only the CLI knows,
// then appends the run — with any computed quality indices — to the
// session's archive when -archive is set.
func finishRun(sess *cliflags.Session, path string, res *core.Result, source string, labeled bool, quality map[string]float64) error {
	rep := res.Report()
	rep.Dataset.Source = source
	rep.Dataset.Labeled = labeled
	if path != "" {
		if err := rep.WriteFile(path); err != nil {
			return err
		}
	}
	_, err := sess.ArchiveRun(rep, quality)
	return err
}

func runSweepL(out io.Writer, ds *dataset.Dataset, cfg core.Config, spec string, report func(*core.Result) error) error {
	lo, hi, err := parseRange(spec)
	if err != nil {
		return err
	}
	points, err := core.SweepL(ds, cfg, lo, hi)
	if err != nil {
		return err
	}
	suggested, err := core.SuggestL(points)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%6s %12s %10s\n", "l", "objective", "outliers")
	var suggestedRes *core.Result
	for _, p := range points {
		marker := ""
		if p.L == suggested {
			marker = "  ← suggested"
			suggestedRes = p.Result
		}
		fmt.Fprintf(out, "%6d %12.4f %10d%s\n", p.L, p.Objective, p.Outliers, marker)
	}
	fmt.Fprintf(out, "\nsuggested l: %d (objective elbow; see §4.3 of the paper)\n", suggested)
	return report(suggestedRes)
}

func runSweepK(out io.Writer, ds *dataset.Dataset, cfg core.Config, spec string, report func(*core.Result) error) error {
	lo, hi, err := parseRange(spec)
	if err != nil {
		return err
	}
	points, err := core.SweepK(ds, cfg, lo, hi)
	if err != nil {
		return err
	}
	suggested, err := core.SuggestK(points)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%6s %12s %10s\n", "k", "objective", "outliers")
	var suggestedRes *core.Result
	for _, p := range points {
		marker := ""
		if p.K == suggested {
			marker = "  ← suggested"
			suggestedRes = p.Result
		}
		fmt.Fprintf(out, "%6d %12.4f %10d%s\n", p.K, p.Objective, p.Result.NumOutliers(), marker)
	}
	fmt.Fprintf(out, "\nsuggested k: %d (objective knee)\n", suggested)
	return report(suggestedRes)
}

func parseRange(spec string) (lo, hi int, err error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("range %q must be min:max", spec)
	}
	lo, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("range %q: %w", spec, err)
	}
	hi, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("range %q: %w", spec, err)
	}
	return lo, hi, nil
}

// writeAssignments writes the assignment CSV atomically: the rows go to
// a temporary file in the destination directory, which replaces path
// only after a complete, synced write. An interrupted or failed run
// never leaves a partial file at path.
func writeAssignments(path string, assignments []int) (retErr error) {
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
	if _, err := f.WriteString("point,cluster\n"); err != nil {
		return err
	}
	for i, a := range assignments {
		if _, err := f.WriteString(strconv.Itoa(i) + "," + strconv.Itoa(a) + "\n"); err != nil {
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

func oneBased(dims []int) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		out[i] = d + 1
	}
	return out
}
