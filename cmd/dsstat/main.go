// Command dsstat inspects a dataset file: shape, per-dimension
// statistics, and (for labeled data) the cluster-size histogram. Binary
// files are processed in one streaming pass without loading the data
// into memory, mirroring the disk-resident access pattern the PROCLUS
// paper assumes; CSV files are loaded normally.
//
// Usage:
//
//	dsstat -in data.bin
//	dsstat -in data.csv -labels
//	dsstat -in data.bin -report stats.json
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/obs/cliflags"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dsstat: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("dsstat", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		in        = fs.String("in", "", "input dataset (.csv or binary); required")
		hasLabels = fs.Bool("labels", false, "CSV input has a trailing label column")
	)
	obsFlags := cliflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
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
	sess.Observe(obs.Event{Type: obs.EvRunStart, Algorithm: "dsstat"})
	start := time.Now()
	var n, dims int
	if strings.HasSuffix(*in, ".csv") {
		n, dims, err = statCSV(out, *in, *hasLabels)
	} else {
		n, dims, err = statBinary(out, *in)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	sess.Observe(obs.Event{
		Type: obs.EvRunEnd, Algorithm: "dsstat",
		Points: n, Dims: dims, Seconds: elapsed.Seconds(),
	})
	if obsFlags.Report != "" {
		rep := obs.RunReport{
			Algorithm: "dsstat",
			Dataset: obs.DatasetInfo{
				Points: n, Dims: dims, Labeled: *hasLabels, Source: *in,
			},
			TotalSeconds: elapsed.Seconds(),
		}
		if err := rep.WriteFile(obsFlags.Report); err != nil {
			return err
		}
	}
	return nil
}

func statBinary(out io.Writer, path string) (n, dims int, err error) {
	n, stats, err := dataset.ScanStats(path)
	if err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(out, "%s: %d points × %d dims (streamed)\n\n", path, n, len(stats))
	printStats(out, stats)
	if counts, err := dataset.ScanLabelHistogram(path); err == nil {
		printLabelHistogram(out, counts)
	}
	return n, len(stats), nil
}

func printLabelHistogram(out io.Writer, counts map[int]int) {
	labels := make([]int, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	fmt.Fprintln(out, "\nground-truth labels:")
	for _, l := range labels {
		name := fmt.Sprintf("cluster %d", l)
		if l == dataset.Outlier {
			name = "outliers"
		}
		fmt.Fprintf(out, "  %-10s %8d points\n", name, counts[l])
	}
}

func statCSV(out io.Writer, path string, hasLabels bool) (n, dims int, err error) {
	ds, err := dataset.LoadFile(path, hasLabels)
	if err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(out, "%s: %d points × %d dims\n\n", path, ds.Len(), ds.Dims())
	min, max := ds.Bounds()
	stats := make([]dataset.ColumnStats, ds.Dims())
	sums := make([]float64, ds.Dims())
	ds.Each(func(_ int, p []float64) {
		for j, v := range p {
			sums[j] += v
		}
	})
	for j := range stats {
		stats[j].Min, stats[j].Max = min[j], max[j]
		stats[j].Mean = sums[j] / float64(ds.Len())
	}
	ssq := make([]float64, ds.Dims())
	ds.Each(func(_ int, p []float64) {
		for j, v := range p {
			d := v - stats[j].Mean
			ssq[j] += d * d
		}
	})
	for j := range stats {
		if ds.Len() > 1 {
			stats[j].StdDev = math.Sqrt(ssq[j] / float64(ds.Len()-1))
		}
	}
	printStats(out, stats)
	if ds.Labeled() {
		counts := map[int]int{}
		for _, l := range ds.Labels() {
			counts[l]++
		}
		labels := make([]int, 0, len(counts))
		for l := range counts {
			labels = append(labels, l)
		}
		sort.Ints(labels)
		fmt.Fprintln(out, "\nground-truth labels:")
		for _, l := range labels {
			name := fmt.Sprintf("cluster %d", l)
			if l == dataset.Outlier {
				name = "outliers"
			}
			fmt.Fprintf(out, "  %-10s %8d points\n", name, counts[l])
		}
	}
	return ds.Len(), ds.Dims(), nil
}

func printStats(out io.Writer, stats []dataset.ColumnStats) {
	fmt.Fprintf(out, "%6s %14s %14s %14s %14s\n", "dim", "min", "max", "mean", "stddev")
	for j, s := range stats {
		fmt.Fprintf(out, "%6d %14.4f %14.4f %14.4f %14.4f\n", j, s.Min, s.Max, s.Mean, s.StdDev)
	}
}
