package experiments

import (
	"fmt"
	"sort"

	"proclus/internal/clique"
	"proclus/internal/core"
	"proclus/internal/dataset"
	"proclus/internal/eval"
	"proclus/internal/obs"
	"proclus/internal/synth"
)

// DimsTable is the data behind Tables 1 and 2: the dimension sets and
// sizes of the generated input clusters versus the recovered output
// clusters.
type DimsTable struct {
	// InputDims[i] / InputSizes[i] describe generated cluster i.
	InputDims  [][]int
	InputSizes []int
	// InputOutliers is the number of generated noise points.
	InputOutliers int
	// OutputDims[i] / OutputSizes[i] describe recovered cluster i.
	OutputDims  [][]int
	OutputSizes []int
	// OutputOutliers is the number of points PROCLUS classified as
	// outliers.
	OutputOutliers int
	// ExactDimMatches counts output clusters whose dimension set equals
	// the matched input cluster's set exactly.
	ExactDimMatches int
	// Purity is the fraction of clustered points landing in their
	// cluster's dominant input cluster.
	Purity float64
}

// runCase executes PROCLUS on a generated case input with the matching
// paper parameters (k = 5; l = 7 for Case 1, l = 4 for Case 2). With
// p.Stream set, the run goes through the out-of-core engine instead.
func runCase(ds *dataset.Dataset, l int, p CaseParams) (*core.Result, error) {
	cfg := core.Config{
		K: caseK, L: l, Seed: p.Seed + 1, Workers: p.Workers,
		Observer: p.Observer,
	}
	if p.Stream {
		return streamProclus(ds, cfg, p.BlockPoints)
	}
	return core.Run(ds, cfg)
}

func buildDimsTable(ds *dataset.Dataset, gt *synth.GroundTruth, res *core.Result) (*DimsTable, error) {
	t := &DimsTable{
		InputDims:     gt.Dimensions,
		InputSizes:    gt.Sizes,
		InputOutliers: gt.Outliers,
	}
	for _, cl := range res.Clusters {
		t.OutputDims = append(t.OutputDims, cl.Dimensions)
		t.OutputSizes = append(t.OutputSizes, len(cl.Members))
	}
	t.OutputOutliers = res.NumOutliers()

	cm, err := eval.NewConfusion(eval.LabelsFromDataset(ds), res.Assignments, len(res.Clusters), len(gt.Sizes))
	if err != nil {
		return nil, err
	}
	t.Purity = cm.Purity()
	match := cm.Match()
	for i, cl := range res.Clusters {
		if match[i] < 0 {
			continue
		}
		if eval.MatchDimensions(cl.Dimensions, gt.Dimensions[match[i]]).Exact {
			t.ExactDimMatches++
		}
	}
	return t, nil
}

func (t *DimsTable) report(id, title string) *Report {
	r := &Report{ID: id, Title: title}
	r.addf("%-8s %-40s %10s", "Input", "Dimensions", "Points")
	for i := range t.InputDims {
		r.addf("%-8c %-40s %10d", 'A'+i, dimsString(t.InputDims[i]), t.InputSizes[i])
	}
	r.addf("%-8s %-40s %10d", "Outliers", "-", t.InputOutliers)
	r.addf("")
	r.addf("%-8s %-40s %10s", "Found", "Dimensions", "Points")
	for i := range t.OutputDims {
		r.addf("%-8d %-40s %10d", i+1, dimsString(t.OutputDims[i]), t.OutputSizes[i])
	}
	r.addf("%-8s %-40s %10d", "Outliers", "-", t.OutputOutliers)
	r.addf("")
	r.addf("exact dimension matches: %d/%d   purity: %.3f",
		t.ExactDimMatches, len(t.OutputDims), t.Purity)
	return r
}

// Table1 reproduces Table 1: input vs output cluster dimensions for
// Case 1 (all clusters 7-dimensional).
func Table1(p CaseParams) (*DimsTable, *Report, error) {
	ds, gt, err := CaseOne(p)
	if err != nil {
		return nil, nil, err
	}
	res, err := runCase(ds, 7, p)
	if err != nil {
		return nil, nil, err
	}
	t, err := buildDimsTable(ds, gt, res)
	if err != nil {
		return nil, nil, err
	}
	rep := t.report("table1", "PROCLUS: dimensions of input and output clusters, Case 1 (l = 7)")
	rep.Timing.Add(res.Stats)
	return t, rep, nil
}

// Table2 reproduces Table 2: input vs output cluster dimensions for
// Case 2 (cluster dimensionalities 2, 2, 3, 6, 7).
func Table2(p CaseParams) (*DimsTable, *Report, error) {
	ds, gt, err := CaseTwo(p)
	if err != nil {
		return nil, nil, err
	}
	res, err := runCase(ds, 4, p)
	if err != nil {
		return nil, nil, err
	}
	t, err := buildDimsTable(ds, gt, res)
	if err != nil {
		return nil, nil, err
	}
	rep := t.report("table2", "PROCLUS: dimensions of input and output clusters, Case 2 (l = 4)")
	rep.Timing.Add(res.Stats)
	return t, rep, nil
}

// ConfusionExperiment is the data behind Tables 3 and 4.
type ConfusionExperiment struct {
	Matrix *eval.ConfusionMatrix
	Purity float64
}

func confusionFor(ds *dataset.Dataset, gt *synth.GroundTruth, l int, p CaseParams) (*ConfusionExperiment, *core.Result, error) {
	res, err := runCase(ds, l, p)
	if err != nil {
		return nil, nil, err
	}
	cm, err := eval.NewConfusion(eval.LabelsFromDataset(ds), res.Assignments, len(res.Clusters), len(gt.Sizes))
	if err != nil {
		return nil, nil, err
	}
	return &ConfusionExperiment{Matrix: cm, Purity: cm.Purity()}, res, nil
}

func (c *ConfusionExperiment) report(id, title string) *Report {
	r := &Report{ID: id, Title: title}
	for _, line := range splitLines(c.Matrix.String()) {
		r.Lines = append(r.Lines, line)
	}
	r.addf("purity: %.3f", c.Purity)
	return r
}

// Table3 reproduces Table 3: the confusion matrix for Case 1.
func Table3(p CaseParams) (*ConfusionExperiment, *Report, error) {
	ds, gt, err := CaseOne(p)
	if err != nil {
		return nil, nil, err
	}
	c, res, err := confusionFor(ds, gt, 7, p)
	if err != nil {
		return nil, nil, err
	}
	rep := c.report("table3", "PROCLUS: confusion matrix, Case 1 (same number of dimensions)")
	rep.Timing.Add(res.Stats)
	return c, rep, nil
}

// Table4 reproduces Table 4: the confusion matrix for Case 2.
func Table4(p CaseParams) (*ConfusionExperiment, *Report, error) {
	ds, gt, err := CaseTwo(p)
	if err != nil {
		return nil, nil, err
	}
	c, res, err := confusionFor(ds, gt, 4, p)
	if err != nil {
		return nil, nil, err
	}
	rep := c.report("table4", "PROCLUS: confusion matrix, Case 2 (different numbers of dimensions)")
	rep.Timing.Add(res.Stats)
	return c, rep, nil
}

// Table5Params scales the CLIQUE comparison of Table 5 and the
// accompanying §4.2 discussion. The paper used the Case-1 input
// (N = 100k, d = 20, 7-dim clusters) with ξ = 10 and τ ∈
// {0.5%, 0.8%, 0.2%, 0.1%}, plus a final τ = 0.1% run restricted to
// 7-dimensional output. That lattice is exponentially expensive; the
// default reduced scale keeps every reported phenomenon visible.
type Table5Params struct {
	// N is the number of points. Default 10,000.
	N int
	// Dims is the space dimensionality. Default 20 (the paper's value;
	// τ is a fraction of N, so the lattice geometry is scale-free and
	// only N needs reducing).
	Dims int
	// ClusterDims is the dimensionality of every input cluster. Default
	// 7 (the paper's value).
	ClusterDims int
	// Taus are the density thresholds (fractions) to sweep. Default
	// {0.005, 0.008} — the paper's two partition-like settings.
	Taus []float64
	// FixedTau is the threshold for the dimension-restricted run
	// (paper: 0.1% with 7-dim output). Default 0.002.
	FixedTau float64
	Seed     uint64
	// Workers bounds the goroutines each CLIQUE run may use
	// (clique.Config.Workers); values below 1 select GOMAXPROCS.
	Workers int
	// Observer, when non-nil, receives every CLIQUE run's structured
	// events (clique.Config.Observer).
	Observer obs.Observer
}

func (p Table5Params) withDefaults() Table5Params {
	if p.N == 0 {
		p.N = 10000
	}
	if p.Dims == 0 {
		p.Dims = 20
	}
	if p.ClusterDims == 0 {
		p.ClusterDims = 7
	}
	if p.Taus == nil {
		p.Taus = []float64{0.005, 0.008}
	}
	if p.FixedTau == 0 {
		p.FixedTau = 0.002
	}
	return p
}

// Table5Row summarizes one CLIQUE run of the sweep.
type Table5Row struct {
	Tau       float64
	FixedDims int // 0 = unrestricted
	Clusters  int
	Coverage  float64 // fraction of true cluster points covered
	Overlap   float64 // average overlap (1 = partition-like)
	// Purity reads the output as a partition (clique.PartitionView) and
	// scores covered points against ground truth.
	Purity   float64
	MaxLevel int
	Err      string // non-empty when the lattice guard tripped
}

// Table5Result is the data behind Table 5: a CLIQUE parameter sweep on a
// Case-1-style input, ending with the dimension-restricted run whose
// input/output matching the paper prints.
type Table5Result struct {
	Rows []Table5Row
	// Snapshot holds, for the dimension-restricted run, one line per
	// output cluster: counts of covered points per input cluster.
	Snapshot []string
}

// Table5 reproduces Table 5 and the CLIQUE discussion of §4.2.
func Table5(p Table5Params) (*Table5Result, *Report, error) {
	p = p.withDefaults()
	ds, gt, err := synth.Generate(synth.Config{
		N: p.N, Dims: p.Dims, K: caseK, FixedDims: p.ClusterDims, Seed: p.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	labels := eval.LabelsFromDataset(ds)
	out := &Table5Result{}
	var timing Timing

	// Unrestricted runs report the highest-dimensionality subspaces,
	// matching the paper's coverage/overlap bookkeeping (see
	// clique.Config.ReportHighest).
	runOne := func(tau float64, fixed int) Table5Row {
		row := Table5Row{Tau: tau, FixedDims: fixed}
		res, err := clique.Run(ds, clique.Config{
			Xi: 10, Tau: tau, FixedDims: fixed, ReportHighest: fixed == 0,
			Workers: p.Workers, Observer: p.Observer,
		})
		if err != nil {
			row.Err = err.Error()
			return row
		}
		timing.AddCounters(res.Stats.Counters)
		row.Clusters = len(res.Clusters)
		row.MaxLevel = res.Levels
		members := clique.Membership(ds, res)
		row.Coverage = eval.Coverage(labels, members)
		if ov, err := eval.AverageOverlap(members); err == nil {
			row.Overlap = ov
		}
		if len(res.Clusters) > 0 {
			view := clique.PartitionView(ds, res)
			if cm, err := eval.NewConfusion(labels, view, len(res.Clusters), caseK); err == nil {
				row.Purity = cm.Purity()
			}
		}
		if fixed > 0 {
			out.Snapshot = snapshotMatching(labels, members, len(gt.Sizes))
		}
		return row
	}

	for _, tau := range p.Taus {
		out.Rows = append(out.Rows, runOne(tau, 0))
	}
	out.Rows = append(out.Rows, runOne(p.FixedTau, p.ClusterDims))

	r := &Report{
		ID: "table5",
		Title: fmt.Sprintf("CLIQUE on a Case-1-style input (N=%d, d=%d, %d-dim clusters)",
			p.N, p.Dims, p.ClusterDims),
	}
	r.addf("%10s %10s %10s %12s %10s %8s %9s", "tau", "fixedDims", "clusters", "coverage%", "overlap", "purity", "maxLevel")
	for _, row := range out.Rows {
		if row.Err != "" {
			r.addf("%10.4f %10d %s", row.Tau, row.FixedDims, "ERROR: "+row.Err)
			continue
		}
		r.addf("%10.4f %10d %10d %12.1f %10.2f %8.3f %9d",
			row.Tau, row.FixedDims, row.Clusters, 100*row.Coverage, row.Overlap, row.Purity, row.MaxLevel)
	}
	if len(out.Snapshot) > 0 {
		r.addf("")
		r.addf("matching between input and output clusters (dimension-restricted run, snapshot):")
		limit := len(out.Snapshot)
		if limit > 12 {
			limit = 12
		}
		for _, s := range out.Snapshot[:limit] {
			r.addf("  %s", s)
		}
		if limit < len(out.Snapshot) {
			r.addf("  … %d more output clusters", len(out.Snapshot)-limit)
		}
	}
	r.Timing = timing
	return out, r, nil
}

// snapshotMatching renders, per output cluster, its per-input-cluster
// coverage counts (the layout of Table 5).
func snapshotMatching(labels []int, members [][]int, numInput int) []string {
	var lines []string
	type rowData struct {
		idx    int
		counts []int
		total  int
	}
	rows := make([]rowData, 0, len(members))
	for ci, m := range members {
		rd := rowData{idx: ci, counts: make([]int, numInput+1)}
		for _, p := range m {
			l := labels[p]
			if l < 0 || l >= numInput {
				l = numInput
			}
			rd.counts[l]++
			rd.total++
		}
		rows = append(rows, rd)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].total > rows[b].total })
	for _, rd := range rows {
		line := fmt.Sprintf("output %3d:", rd.idx+1)
		for j, c := range rd.counts {
			if c == 0 {
				continue
			}
			name := "Out."
			if j < numInput {
				name = string(rune('A' + j))
			}
			line += fmt.Sprintf("  %s=%d", name, c)
		}
		lines = append(lines, line)
	}
	return lines
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
