// Command pcluster runs any registered clustering algorithm — PROCLUS,
// CLIQUE, ORCLUS or the full-dimensional k-medoids baseline — on a
// dataset file through the algorithm registry, with one shared flag
// surface. Flags the selected algorithm does not support (streaming
// ORCLUS, a cluster count on CLIQUE, a worker budget on the serial
// k-medoids descent, a series file or stall watchdog on an algorithm
// that emits no progress, another algorithm's parameters) are rejected
// with a clear error instead of being silently ignored.
//
// The summary lists every cluster with its dimension set. On labeled
// input it adds the evaluation of §4.2 of the paper: the confusion
// matrix and purity for the partitioning algorithms, average overlap and
// coverage for CLIQUE, and ARI/NMI for all of them.
//
// Usage:
//
//	pcluster -list
//	pcluster -algo proclus  -in data.bin -k 5 -l 7
//	pcluster -algo proclus  -in data.bin -k 5 -sweepl 2:9    # try a range of l values
//	pcluster -algo proclus  -in data.bin -k 5 -l 7 -stream
//	pcluster -algo clique   -in data.csv -labels -xi 10 -tau 0.005 -mdl -v
//	pcluster -algo orclus   -in data.bin -k 3 -l 2 -outliers
//	pcluster -algo kmedoids -in data.csv -labels -k 5 -normalize zscore
//	pcluster -algo proclus  -in data.bin -k 5 -l 7 -report run.json -archive runs/
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"proclus/internal/clique"
	"proclus/internal/core"
	"proclus/internal/dataset"
	"proclus/internal/eval"
	"proclus/internal/obs"
	"proclus/internal/obs/cliflags"
	"proclus/internal/registry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pcluster: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("pcluster", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		algo      = fs.String("algo", "", "algorithm to run (see -list); required")
		list      = fs.Bool("list", false, "list the registered algorithms and exit")
		in        = fs.String("in", "", "input dataset (.csv or binary); required")
		hasLabels = fs.Bool("labels", false, "CSV input has a trailing ground-truth label column")
		normalize = fs.String("normalize", "", "rescale dimensions before clustering: minmax or zscore (in memory only)")

		// Shared knobs. Zero means "not set": algorithms that do not
		// take a knob reject any non-zero value, so nothing is silently
		// ignored.
		k        = fs.Int("k", 0, "number of clusters (proclus, orclus, kmedoids)")
		l        = fs.Int("l", 0, "subspace dimensionality per cluster (proclus, orclus)")
		seed     = fs.Uint64("seed", 1, "random seed")
		workers  = fs.Int("workers", 0, "goroutine budget for parallel passes (0 = GOMAXPROCS); results are identical for any value")
		stream   = fs.Bool("stream", false, "cluster the input out of core (binary input; streaming-capable algorithms only)")
		blockPts = fs.Int("block-points", 0, "points per streamed block (0 = default); only with -stream")

		// PROCLUS parameter sweeps (§4.3 of the paper).
		sweepL = fs.String("sweepl", "", "proclus: fit every l in a min:max range, print the objective curve and keep the suggested l")
		sweepK = fs.String("sweepk", "", "proclus: fit every k in a min:max range, print the objective curve and keep the suggested k")

		// CLIQUE grid parameters.
		xi      = fs.Int("xi", 0, "clique: intervals per dimension ξ (0 = default)")
		tau     = fs.Float64("tau", 0, "clique: density threshold τ as a fraction of N (0 = default)")
		maxDims = fs.Int("maxdims", 0, "clique: stop the subspace search at this dimensionality (0 = unlimited)")
		fixed   = fs.Int("fixeddims", 0, "clique: report clusters only at exactly this dimensionality")
		maximal = fs.Bool("maximal", false, "clique: report only maximal dense subspaces")
		highest = fs.Bool("highest", false, "clique: report only the highest dimensionality reached")
		mdl     = fs.Bool("mdl", false, "clique: enable MDL subspace pruning")
		verbose = fs.Bool("v", false, "clique: list every cluster's region description")

		// ORCLUS loop parameters.
		k0Factor = fs.Int("k0factor", 0, "orclus: initial-seed multiplier k0 = k0factor·k (0 = default)")
		alpha    = fs.Float64("alpha", 0, "orclus: cluster-count decay factor per merge round (0 = default)")
		outliers = fs.Bool("outliers", false, "orclus: discard points outside every sphere of influence")

		// k-medoids descent parameters.
		maxNb    = fs.Int("max-neighbors", 0, "kmedoids: neighbor swaps examined per local-search step (0 = default)")
		restarts = fs.Int("restarts", 0, "kmedoids: independent descents, best kept (0 = default)")

		assignOut = fs.String("assign", "", "optional path for a point→cluster assignment CSV")
	)
	obsFlags := cliflags.Register(fs, cliflags.WithArchive())
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range registry.Names() {
			a, err := registry.Get(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-10s %s\n", name, capsSummary(a.Caps()))
		}
		return nil
	}
	if *algo == "" || *in == "" {
		fs.Usage()
		return fmt.Errorf("-algo and -in are required (or -list)")
	}
	a, err := registry.Get(*algo)
	if err != nil {
		return err
	}
	// Reject the combinations the registry cannot see before the session
	// opens, so a refused run leaves no -series, trace or profile file.
	sweepParam, sweepSpec := "l", *sweepL
	if *sweepK != "" {
		sweepParam, sweepSpec = "k", *sweepK
	}
	stall := obsFlags.StallIters > 0 || obsFlags.StallDeadline > 0 || obsFlags.StallCancel
	switch {
	case *sweepL != "" && *sweepK != "":
		return fmt.Errorf("-sweepl and -sweepk are exclusive")
	case sweepSpec != "" && *algo != "proclus":
		return fmt.Errorf("-sweep%s is proclus only, not %s", sweepParam, *algo)
	case *verbose && *algo != "clique":
		return fmt.Errorf("-v lists CLIQUE regions; %s has none", *algo)
	case *normalize != "" && *normalize != "minmax" && *normalize != "zscore":
		return fmt.Errorf("unknown -normalize mode %q (want minmax or zscore)", *normalize)
	case obsFlags.Series != "" && !a.Caps().Series:
		return fmt.Errorf("-series is unsupported: %s records no convergence series", *algo)
	case stall && !a.Caps().Series:
		return fmt.Errorf("-stall-iters/-stall-deadline/-stall-cancel are unsupported: %s emits no progress events for the watchdog", *algo)
	case *blockPts != 0 && !*stream:
		return fmt.Errorf("-block-points applies only with -stream")
	case *stream && *normalize != "":
		return fmt.Errorf("-stream is incompatible with -normalize: rescaling needs the matrix in memory")
	case *stream && sweepSpec != "":
		return fmt.Errorf("-stream is incompatible with -sweep%s: sweeps refit the in-memory dataset", sweepParam)
	case *stream && strings.HasSuffix(strings.ToLower(*in), ".csv"):
		return fmt.Errorf("-stream requires the binary dataset format (convert with datagen or dsstat)")
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
	cfg := registry.Config{
		K: *k, L: *l, Seed: *seed, Workers: *workers,
		Clique: registry.CliqueParams{
			Xi: *xi, Tau: *tau, MaxDims: *maxDims, FixedDims: *fixed,
			ReportMaximal: *maximal, ReportHighest: *highest, MDLPruning: *mdl,
		},
		Orclus: registry.OrclusParams{
			K0Factor: *k0Factor, Alpha: *alpha, HandleOutliers: *outliers,
		},
		Medoid:   registry.MedoidParams{MaxNeighbors: *maxNb, Restarts: *restarts},
		Observer: sess.Observer, Metrics: sess.Metrics, Series: sess.Series,
	}

	var (
		src    registry.Source
		ds     *dataset.Dataset
		labels []int // nil for unlabeled input
	)
	if *stream {
		fsrc, err := dataset.OpenFileSource(*in, *blockPts)
		if err != nil {
			return err
		}
		src.Stream = fsrc
		if fsrc.Labeled() {
			if labels, err = dataset.ScanLabels(*in); err != nil {
				return err
			}
		}
	} else {
		if ds, err = dataset.LoadFile(*in, *hasLabels); err != nil {
			return err
		}
		switch *normalize {
		case "minmax":
			if _, _, err := ds.MinMaxScale(0, 100); err != nil {
				return err
			}
		case "zscore":
			ds.Standardize()
		}
		src.Dataset = ds
		if ds.Labeled() {
			labels = ds.Labels()
		}
	}

	ctx, cancel := sess.Context(context.Background())
	defer cancel()
	var (
		m     registry.Model
		res   *core.Result // the suggested fit of a sweep
		curve strings.Builder
	)
	start := time.Now()
	if sweepSpec != "" {
		// Sweeps refit the dataset through core.SweepL/SweepK, with the
		// registry adapter's field-for-field core.Config translation.
		res, err = sweep(&curve, ds, core.Config{
			K: cfg.K, L: cfg.L, Seed: cfg.Seed, Workers: cfg.Workers,
			Observer: cfg.Observer, Metrics: cfg.Metrics, Series: cfg.Series,
		}, sweepParam, sweepSpec)
	} else {
		m, err = registry.Fit(ctx, *algo, src, cfg)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	var (
		rep  *obs.RunReport
		as   []int
		cres *clique.Result
	)
	if m != nil {
		rep, as = m.Report(), m.Assignments()
		cres, _ = m.Unwrap().(*clique.Result)
	} else {
		rep, as = res.Report(), res.Assignments
	}
	rep.Dataset.Source = *in
	rep.Dataset.Labeled = labels != nil

	fmt.Fprintf(out, "%s: %d points × %d dims — %s\n",
		*algo, rep.Dataset.Points, rep.Dataset.Dims, elapsed.Round(time.Millisecond))
	io.WriteString(out, curve.String())
	quality, err := summarize(out, rep, as, cres, labels, *verbose)
	if err != nil {
		return err
	}

	if *assignOut != "" {
		if as == nil {
			return fmt.Errorf("-assign: %s holds no per-point assignments for this source (streamed fit)", *algo)
		}
		if err := dataset.SaveAssignments(*assignOut, as); err != nil {
			return err
		}
		fmt.Fprintf(out, "assignments written to %s\n", *assignOut)
	}
	if obsFlags.Report != "" {
		if err := rep.WriteFile(obsFlags.Report); err != nil {
			return err
		}
	}
	_, err = sess.ArchiveRun(rep, quality)
	return err
}

// summarize prints the fit's objective, clusters and dimension sets and,
// when labels are known, its quality against them, and returns the
// quality indices for the archive. as is nil for a streamed fit without
// per-point assignments, labels nil for unlabeled input. cres is set for
// CLIQUE fits, whose clusters overlap and so get average overlap and
// coverage instead of a confusion matrix.
func summarize(out io.Writer, rep *obs.RunReport, as []int, cres *clique.Result, labels []int, verbose bool) (map[string]float64, error) {
	if cres == nil {
		fmt.Fprintf(out, "objective: %.4f\n", rep.Objective)
	}
	if rep.Levels > 0 {
		fmt.Fprintf(out, "dense units per subspace dimensionality: %v (levels reached: %d)\n",
			rep.DenseBySubspaceDim, rep.Levels)
	}
	fmt.Fprintf(out, "clusters: %d\n", len(rep.Clusters))
	for i, cl := range rep.Clusters {
		fmt.Fprintf(out, "  cluster %3d: %6d points", cl.ID+1, cl.Size)
		if len(cl.Dimensions) > 0 {
			fmt.Fprintf(out, "  dims %v", oneBased(cl.Dimensions))
		}
		fmt.Fprintln(out)
		if verbose {
			for _, reg := range clique.Describe(cres.Clusters[i]) {
				fmt.Fprintf(out, "      region %s\n", reg)
			}
		}
	}
	if rep.Outliers > 0 {
		fmt.Fprintf(out, "  outliers: %d\n", rep.Outliers)
	}

	quality := map[string]float64{}
	if cres != nil && as != nil {
		// The partition view places every covered point, so the sum of
		// the cluster sizes over the covered points is eval.AverageOverlap
		// and the covered share of the true cluster points is
		// eval.Coverage, without rebuilding the overlapping memberships.
		var sizes, covered, truePts, hit int
		for _, cl := range rep.Clusters {
			sizes += cl.Size
		}
		for p, a := range as {
			if a >= 0 {
				covered++
			}
			if labels != nil && labels[p] >= 0 {
				truePts++
				if a >= 0 {
					hit++
				}
			}
		}
		if covered > 0 {
			fmt.Fprintf(out, "average overlap: %.2f\n", float64(sizes)/float64(covered))
		}
		if truePts > 0 {
			cov := float64(hit) / float64(truePts)
			fmt.Fprintf(out, "cluster-point coverage: %.1f%%\n", 100*cov)
			quality["coverage"] = cov
		}
	}
	switch {
	case labels != nil && as != nil:
		if cres == nil {
			cm, err := eval.NewConfusion(labels, as, len(rep.Clusters), numLabels(labels))
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "confusion matrix (output rows × input columns):\n%s", cm)
			fmt.Fprintf(out, "purity: %.3f   ", cm.Purity())
			quality["purity"] = cm.Purity()
		}
		if ari, err := eval.AdjustedRandIndex(labels, as); err == nil {
			fmt.Fprintf(out, "ARI: %.3f", ari)
			quality["ari"] = ari
		}
		if nmi, err := eval.NormalizedMutualInfo(labels, as); err == nil {
			fmt.Fprintf(out, "   NMI: %.3f", nmi)
			quality["nmi"] = nmi
		}
		fmt.Fprintln(out)
	case labels != nil:
		fmt.Fprintln(out, "quality: skipped (streamed fit holds no per-point assignments)")
	}
	return quality, nil
}

// sweep fits PROCLUS for every value of param ("l" or "k") in the
// min:max range spec, writes the objective curve to w, and returns the
// fit at the suggested value: the objective elbow for l (§4.3 of the
// paper), the knee for k.
func sweep(w io.Writer, ds *dataset.Dataset, cfg core.Config, param, spec string) (*core.Result, error) {
	lo, hi, err := parseRange(spec)
	if err != nil {
		return nil, err
	}
	var (
		values    []int
		fits      []*core.Result
		suggested int
	)
	if param == "l" {
		points, err := core.SweepL(ds, cfg, lo, hi)
		if err != nil {
			return nil, err
		}
		if suggested, err = core.SuggestL(points); err != nil {
			return nil, err
		}
		for _, p := range points {
			values, fits = append(values, p.L), append(fits, p.Result)
		}
	} else {
		points, err := core.SweepK(ds, cfg, lo, hi)
		if err != nil {
			return nil, err
		}
		if suggested, err = core.SuggestK(points); err != nil {
			return nil, err
		}
		for _, p := range points {
			values, fits = append(values, p.K), append(fits, p.Result)
		}
	}
	fmt.Fprintf(w, "%6s %12s %10s\n", param, "objective", "outliers")
	var best *core.Result
	for i, res := range fits {
		marker := ""
		if values[i] == suggested {
			marker, best = "  ← suggested", res
		}
		fmt.Fprintf(w, "%6d %12.4f %10d%s\n", values[i], res.Objective, res.NumOutliers(), marker)
	}
	fmt.Fprintf(w, "suggested %s: %d\n", param, suggested)
	return best, nil
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

func oneBased(dims []int) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		out[i] = d + 1
	}
	return out
}

// numLabels is the number of ground-truth clusters: one past the largest
// label, outliers (negative labels) aside.
func numLabels(labels []int) int {
	n := 0
	for _, l := range labels {
		n = max(n, l+1)
	}
	return n
}

// capsSummary renders an algorithm's capability set for -list.
func capsSummary(c registry.Caps) string {
	var parts []string
	add := func(ok bool, label string) {
		if ok {
			parts = append(parts, label)
		}
	}
	add(c.TakesK, "k")
	add(c.TakesL, "l")
	add(c.Stream, "stream")
	add(c.Series, "series")
	add(c.Workers, "workers")
	add(c.CliqueParams, "xi/tau")
	add(c.OrclusParams, "k0factor/alpha")
	add(c.MedoidParams, "max-neighbors/restarts")
	return strings.Join(parts, " ")
}
