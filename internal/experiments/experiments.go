// Package experiments reproduces every table and figure of §4 of the
// PROCLUS paper. Each experiment builds its workload with the §4.1
// generator, runs PROCLUS (and CLIQUE where the paper compares), and
// renders a report in the layout of the corresponding paper artifact.
//
// The experiments are parameterized by scale: the paper ran N = 100,000
// points in 20 dimensions on 1999 hardware, which remains perfectly
// tractable today for PROCLUS but makes the CLIQUE lattice searches
// slow inside test runs. Params values therefore default to a reduced
// scale that preserves every qualitative shape (who wins, how curves
// grow, where clusters split); PaperScale restores the published sizes.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"proclus/internal/core"
	"proclus/internal/dataset"
	"proclus/internal/obs"
	"proclus/internal/obs/metrics"
	"proclus/internal/synth"
)

// Report is a rendered experiment: an identifier (e.g. "table3"), a
// title quoting the paper artifact, and preformatted lines. Timing
// aggregates the PROCLUS phase breakdown across the experiment's runs.
type Report struct {
	ID     string
	Title  string
	Lines  []string
	Timing Timing
}

// Timing aggregates PROCLUS phase timings across an experiment's runs.
// The numbers come from core.Stats — measured inside the algorithm —
// so dataset generation, evaluation and rendering never leak into
// them, unlike wall-clock timing around the whole experiment.
type Timing struct {
	// Runs is the number of PROCLUS runs aggregated.
	Runs int
	// Init, Iterate and Refine sum the per-phase durations over Runs.
	Init    time.Duration
	Iterate time.Duration
	Refine  time.Duration
	// Counters sums hot-path work counters over every clustering run in
	// the experiment — PROCLUS runs folded by Add, plus any CLIQUE
	// baseline runs folded by AddCounters. Unlike the durations, the
	// counts are deterministic for a fixed seed, so tests can pin them
	// exactly (TestTable1WorkCountersExact).
	Counters obs.Snapshot
}

// Add folds one run's phase timings and counters into the aggregate.
func (t *Timing) Add(s core.Stats) {
	t.Runs++
	t.Init += s.InitDuration
	t.Iterate += s.IterateDuration
	t.Refine += s.RefineDuration
	t.Counters.Merge(s.Counters)
}

// AddCounters folds a run's counters without counting it as a PROCLUS
// run; used for the CLIQUE baseline runs inside comparison experiments.
func (t *Timing) AddCounters(c obs.Snapshot) {
	t.Counters.Merge(c)
}

// Total is the summed time PROCLUS spent across all phases and runs.
func (t Timing) Total() time.Duration { return t.Init + t.Iterate + t.Refine }

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// CaseParams scales the paper's two accuracy inputs (§4.2). The zero
// value selects the reduced scale.
type CaseParams struct {
	// N is the number of points. Paper: 100,000. Default 20,000.
	N int
	// Seed drives generation and clustering.
	Seed uint64
	// Workers bounds the goroutines each PROCLUS run may use
	// (core.Config.Workers); values below 1 select GOMAXPROCS. Results
	// are identical for any value.
	Workers int
	// Stream, when set, runs PROCLUS out of core: the generated input is
	// spilled to a temporary binary file and clustered via core.RunStream
	// over a block-buffered FileSource, exercising the bounded-memory
	// path end to end. Streamed results are identical for every
	// BlockPoints and Workers value, but differ from the in-memory runs
	// by design (see core.RunStream).
	Stream bool
	// BlockPoints sets the streamed block granularity in points; zero
	// selects dataset.DefaultBlockPoints. Ignored unless Stream is set.
	BlockPoints int
	// Metrics, when non-nil, is a shared registry every clustering run of
	// the experiment records into (core.Config.Metrics); it accumulates
	// phase-latency histograms and counter series across the experiment.
	Metrics *metrics.Registry
	// Observer, when non-nil, receives every clustering run's structured
	// events (core.Config.Observer).
	Observer obs.Observer
}

func (p CaseParams) withDefaults() CaseParams {
	if p.N == 0 {
		p.N = 20000
	}
	return p
}

// caseDims are the shared space parameters of both accuracy cases.
const (
	caseSpaceDims = 20
	caseK         = 5
)

// caseMinShare conditions the generated cluster sizes to the balance
// the paper's published inputs exhibit (15%–23% of N each in Tables
// 1–4); raw Exp(1) draws frequently produce a sub-5% cluster, which no
// published input shows.
const caseMinShare = 0.1

// CaseOne generates the paper's Case 1 input: 5 clusters, each in some
// 7-dimensional subspace of a 20-dimensional space (l = 7).
func CaseOne(p CaseParams) (*dataset.Dataset, *synth.GroundTruth, error) {
	p = p.withDefaults()
	return synth.Generate(synth.Config{
		N: p.N, Dims: caseSpaceDims, K: caseK, FixedDims: 7,
		MinSizeFraction: caseMinShare, Seed: p.Seed,
	})
}

// CaseTwo generates the paper's Case 2 input: clusters in 2-, 2-, 3-,
// 6- and 7-dimensional subspaces (l = 4).
func CaseTwo(p CaseParams) (*dataset.Dataset, *synth.GroundTruth, error) {
	p = p.withDefaults()
	return synth.Generate(synth.Config{
		N: p.N, Dims: caseSpaceDims, K: caseK,
		DimCounts:       []int{2, 2, 3, 6, 7},
		MinSizeFraction: caseMinShare, Seed: p.Seed,
	})
}

// dimsString renders a dimension set the way the paper's Tables 1–2 do
// (1-based, comma-separated).
func dimsString(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprint(d + 1)
	}
	return strings.Join(parts, ", ")
}
