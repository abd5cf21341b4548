// Command datagen generates synthetic projected-clustering datasets per
// §4.1 of the PROCLUS paper and writes them to CSV or binary files.
//
// Usage:
//
//	datagen -n 100000 -dims 20 -k 5 -avgdims 7 -seed 1 -o data.csv
//	datagen -n 100000 -dims 20 -k 5 -dimcounts 2,2,3,6,7 -o case2.bin
//	datagen -oriented -n 10000 -dims 10 -k 3 -fixeddims 2 -o rotated.bin
//	datagen -n 100000 -dims 20 -k 5 -avgdims 7 -o data.bin -report gen.json
//
// The output is labeled: the final CSV column (and the binary label
// block) holds the generating cluster index, -1 for outliers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/obs/cliflags"
	"proclus/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		n         = fs.Int("n", 100000, "number of points (including outliers)")
		dims      = fs.Int("dims", 20, "dimensionality of the space")
		k         = fs.Int("k", 5, "number of clusters")
		avgDims   = fs.Float64("avgdims", 0, "Poisson mean of cluster dimensionality (paper's l)")
		fixedDims = fs.Int("fixeddims", 0, "exact dimensionality for every cluster (overrides -avgdims)")
		dimCounts = fs.String("dimcounts", "", "comma-separated per-cluster dimensionalities (overrides both)")
		outliers  = fs.Float64("outliers", 0.05, "outlier fraction")
		minShare  = fs.Float64("minshare", 0, "minimum cluster size as a fraction of cluster points (0 = raw Exp(1) sizes)")
		oriented  = fs.Bool("oriented", false, "generate arbitrarily oriented clusters (-fixeddims = tight directions)")
		seed      = fs.Uint64("seed", 1, "random seed")
		outPath   = fs.String("o", "", "output path (.csv for CSV, anything else for binary); required")
	)
	obsFlags := cliflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		fs.Usage()
		return fmt.Errorf("-o is required")
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
	start := time.Now()
	sess.Observe(obs.Event{
		Type: obs.EvRunStart, Algorithm: "datagen", Points: *n, Dims: *dims,
	})

	var ds *dataset.Dataset
	var describe func(io.Writer)
	var cfgEcho any
	if *oriented {
		cfg := synth.OrientedConfig{
			N: *n, Dims: *dims, K: *k, L: *fixedDims,
			OutlierFraction: *outliers, Seed: *seed,
		}
		if *outliers == 0 {
			cfg.OutlierFraction = -1
		}
		cfgEcho = cfg
		var gt *synth.OrientedTruth
		var err error
		ds, gt, err = synth.GenerateOriented(cfg)
		if err != nil {
			return err
		}
		describe = func(w io.Writer) {
			for i := range gt.Sizes {
				fmt.Fprintf(w, "cluster %c: %6d points, %d tight directions\n",
					'A'+i, gt.Sizes[i], len(gt.TightBases[i]))
			}
			fmt.Fprintf(w, "outliers:  %6d points\n", gt.Outliers)
		}
	} else {
		cfg := synth.Config{
			N: *n, Dims: *dims, K: *k,
			AvgDims:         *avgDims,
			FixedDims:       *fixedDims,
			OutlierFraction: *outliers,
			MinSizeFraction: *minShare,
			Seed:            *seed,
		}
		if *outliers == 0 {
			cfg.OutlierFraction = -1
		}
		if *dimCounts != "" {
			counts, err := parseCounts(*dimCounts)
			if err != nil {
				return err
			}
			cfg.DimCounts = counts
		}
		cfgEcho = cfg
		var gt *synth.GroundTruth
		var err error
		ds, gt, err = synth.Generate(cfg)
		if err != nil {
			return err
		}
		describe = func(w io.Writer) {
			for i, d := range gt.Dimensions {
				fmt.Fprintf(w, "cluster %c: %6d points, dims %v\n", 'A'+i, gt.Sizes[i], oneBased(d))
			}
			fmt.Fprintf(w, "outliers:  %6d points\n", gt.Outliers)
		}
	}

	if err := ds.SaveFile(*outPath); err != nil {
		return err
	}
	elapsed := time.Since(start)
	sess.Observe(obs.Event{
		Type: obs.EvRunEnd, Algorithm: "datagen", Seconds: elapsed.Seconds(),
	})
	fmt.Fprintf(out, "wrote %d points × %d dims to %s\n", ds.Len(), ds.Dims(), *outPath)
	describe(out)
	if obsFlags.Report != "" {
		rep := obs.RunReport{
			Algorithm: "datagen",
			Dataset: obs.DatasetInfo{
				Points: ds.Len(), Dims: ds.Dims(), Labeled: true, Source: *outPath,
			},
			Seed:         *seed,
			Config:       cfgEcho,
			TotalSeconds: elapsed.Seconds(),
		}
		if err := rep.WriteFile(obsFlags.Report); err != nil {
			return err
		}
	}
	return nil
}

func parseCounts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	counts := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -dimcounts entry %q: %w", p, err)
		}
		counts = append(counts, v)
	}
	return counts, nil
}

func oneBased(dims []int) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		out[i] = d + 1
	}
	return out
}
