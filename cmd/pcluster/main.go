// Command pcluster is the umbrella CLI over the algorithm registry: one
// binary that runs any registered clustering algorithm — PROCLUS,
// CLIQUE, ORCLUS or the full-dimensional k-medoids baseline — with one
// shared flag surface. Flags an algorithm does not support (streaming
// ORCLUS, a kernel mode on CLIQUE, a worker budget on the serial
// k-medoids descent, another algorithm's parameters) are rejected by
// the registry with a clear error instead of being silently ignored.
//
// Usage:
//
//	pcluster -list
//	pcluster -algo proclus  -in data.bin -k 5 -l 7
//	pcluster -algo proclus  -in data.bin -k 5 -l 7 -stream -kernel pruned
//	pcluster -algo clique   -in data.csv -labels -xi 10 -tau 0.005 -mdl
//	pcluster -algo orclus   -in data.bin -k 3 -l 2 -outliers
//	pcluster -algo kmedoids -in data.csv -labels -k 5
//	pcluster -algo proclus  -in data.bin -k 5 -l 7 -report run.json -archive runs/
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
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

		// Shared knobs. Zero means "not set": algorithms that do not
		// take a knob reject any non-zero value, so nothing is silently
		// ignored.
		k        = fs.Int("k", 0, "number of clusters (proclus, orclus, kmedoids)")
		l        = fs.Int("l", 0, "subspace dimensionality per cluster (proclus, orclus)")
		seed     = fs.Uint64("seed", 1, "random seed")
		workers  = fs.Int("workers", 0, "goroutine budget for parallel passes (0 = GOMAXPROCS); results are identical for any value")
		stream   = fs.Bool("stream", false, "cluster the input out of core (binary input; streaming-capable algorithms only)")
		blockPts = fs.Int("block-points", 0, "points per streamed block (0 = default); only with -stream")
		kernel   = fs.String("kernel", "pruned", "exact distance-kernel tier: pruned or naive (proclus only)")

		// CLIQUE grid parameters.
		xi      = fs.Int("xi", 0, "clique: intervals per dimension ξ (0 = default)")
		tau     = fs.Float64("tau", 0, "clique: density threshold τ as a fraction of N (0 = default)")
		maxDims = fs.Int("maxdims", 0, "clique: stop the subspace search at this dimensionality (0 = unlimited)")
		fixed   = fs.Int("fixeddims", 0, "clique: report clusters only at exactly this dimensionality")
		maximal = fs.Bool("maximal", false, "clique: report only maximal dense subspaces")
		highest = fs.Bool("highest", false, "clique: report only the highest dimensionality reached")
		mdl     = fs.Bool("mdl", false, "clique: enable MDL subspace pruning")

		// ORCLUS loop parameters.
		k0Factor = fs.Int("k0factor", 0, "orclus: initial-seed multiplier k0 = k0factor·k (0 = default)")
		alpha    = fs.Float64("alpha", 0, "orclus: cluster-count decay factor per merge round (0 = default)")
		outliers = fs.Bool("outliers", false, "orclus: discard points outside every sphere of influence")

		// k-medoids descent parameters.
		maxNb    = fs.Int("max-neighbors", 0, "kmedoids: neighbor swaps examined per local-search step (0 = default)")
		restarts = fs.Int("restarts", 0, "kmedoids: independent descents, best kept (0 = default)")

		assignOut = fs.String("assign", "", "optional path for a point→cluster assignment CSV")
	)
	obsFlags := cliflags.Register(fs)
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
	kernelMode, err := core.ParseKernelMode(*kernel)
	if err != nil {
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
	cfg := registry.Config{
		K: *k, L: *l, Seed: *seed, Workers: *workers,
		Kernel: kernelMode,
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
		src     registry.Source
		labels  []int
		labeled bool
	)
	if *stream {
		if strings.HasSuffix(strings.ToLower(*in), ".csv") {
			return fmt.Errorf("-stream requires the binary dataset format (convert with datagen or dsstat)")
		}
		fsrc, err := dataset.OpenFileSource(*in, *blockPts)
		if err != nil {
			return err
		}
		src.Stream = fsrc
		labeled = fsrc.Labeled()
		if labeled {
			if labels, err = dataset.ScanLabels(*in); err != nil {
				return err
			}
		}
	} else {
		ds, err := dataset.LoadFile(*in, *hasLabels)
		if err != nil {
			return err
		}
		src.Dataset = ds
		labeled = ds.Labeled()
		if labeled {
			labels = ds.Labels()
		}
	}

	ctx, cancel := sess.Context(context.Background())
	defer cancel()
	start := time.Now()
	m, err := registry.Fit(ctx, *algo, src, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	rep := m.Report()
	rep.Dataset.Source = *in
	rep.Dataset.Labeled = labeled

	fmt.Fprintf(out, "%s: %d points × %d dims — %s\n",
		m.Algorithm(), rep.Dataset.Points, rep.Dataset.Dims, elapsed.Round(time.Millisecond))
	if rep.Objective != 0 {
		fmt.Fprintf(out, "objective: %.4f\n", rep.Objective)
	}
	fmt.Fprintf(out, "clusters: %d\n", m.NumClusters())
	for _, cl := range rep.Clusters {
		fmt.Fprintf(out, "  cluster %3d: %6d points\n", cl.ID+1, cl.Size)
	}
	if rep.Outliers > 0 {
		fmt.Fprintf(out, "  outliers: %d\n", rep.Outliers)
	}

	var quality map[string]float64
	as := m.Assignments()
	if labeled && as != nil {
		quality = map[string]float64{}
		if ari, err := eval.AdjustedRandIndex(labels, as); err == nil {
			fmt.Fprintf(out, "ARI: %.3f", ari)
			quality["ari"] = ari
		}
		if nmi, err := eval.NormalizedMutualInfo(labels, as); err == nil {
			fmt.Fprintf(out, "   NMI: %.3f", nmi)
			quality["nmi"] = nmi
		}
		fmt.Fprintln(out)
	} else if labeled {
		fmt.Fprintln(out, "quality: skipped (streamed fit holds no per-point assignments)")
	}

	if *assignOut != "" {
		if as == nil {
			return fmt.Errorf("-assign: %s holds no per-point assignments for this source (streamed fit)", m.Algorithm())
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
	add(c.Kernel, "kernel")
	add(c.Series, "series")
	add(c.Workers, "workers")
	add(c.CliqueParams, "xi/tau")
	add(c.OrclusParams, "k0factor/alpha")
	add(c.MedoidParams, "max-neighbors/restarts")
	return strings.Join(parts, " ")
}
