package obs

import (
	"encoding/json"
	"io"
	"os"

	seriespkg "proclus/internal/obs/series"
)

// RunReport is the machine-readable record of one run: the effective
// configuration and seed needed to replay it, per-phase and per-restart
// timings, hot-path counters, the objective trace, and a final cluster
// summary. It marshals to a single JSON document with a stable field
// order (Go marshals struct fields in declaration order), which the
// golden tests pin.
type RunReport struct {
	// Algorithm names the producer: "proclus", "clique", "orclus" or
	// "kmedoids".
	Algorithm string `json:"algorithm"`
	// Dataset describes the input.
	Dataset DatasetInfo `json:"dataset"`
	// Seed is the effective random seed; replaying with the same data,
	// Config and Seed reproduces the run exactly. Zero for algorithms
	// without randomness (CLIQUE).
	Seed uint64 `json:"seed"`
	// Config echoes the effective algorithm configuration (defaults
	// applied) as a JSON-safe struct.
	Config any `json:"config"`
	// Phases holds the per-phase wall times in execution order.
	Phases []PhaseReport `json:"phases"`
	// Restarts breaks the iterative phase down per hill-climb restart
	// (PROCLUS only).
	Restarts []RestartReport `json:"restarts,omitempty"`
	// Counters snapshots the run's hot-path counters.
	Counters Snapshot `json:"counters"`
	// Series snapshots the per-iteration and per-block time series the
	// run recorded (objective trajectory, swap acceptance, cache hit
	// rate, block latencies). Present only when a series store was
	// attached to the run; recording is opt-in, so uninstrumented runs
	// and existing goldens are unaffected.
	Series seriespkg.StoreSnapshot `json:"series,omitempty"`
	// ObjectiveTrace holds the objective of every evaluated trial in
	// order, across restarts (PROCLUS only).
	ObjectiveTrace []float64 `json:"objective_trace,omitempty"`
	// Objective is the final value of the quality measure.
	Objective float64 `json:"objective"`
	// Iterations is the total number of hill-climbing trials evaluated.
	Iterations int `json:"iterations,omitempty"`
	// Levels is the highest lattice level reached (CLIQUE only).
	Levels int `json:"levels,omitempty"`
	// DenseBySubspaceDim[i] is the number of dense units found in
	// (i+1)-dimensional subspaces (CLIQUE only).
	DenseBySubspaceDim []int `json:"dense_by_subspace_dim,omitempty"`
	// Clusters summarizes the output clusters.
	Clusters []ClusterReport `json:"clusters"`
	// Outliers is the number of points assigned to no cluster
	// (partition algorithms only).
	Outliers int `json:"outliers,omitempty"`
	// TotalSeconds sums the phase durations.
	TotalSeconds float64 `json:"total_seconds"`
}

// DatasetInfo describes a report's input dataset.
type DatasetInfo struct {
	Points int `json:"points"`
	Dims   int `json:"dims"`
	// Labeled reports whether the input carried ground-truth labels
	// (set by the CLIs, which know the load options).
	Labeled bool `json:"labeled,omitempty"`
	// Source is the input path, when the run came from a file.
	Source string `json:"source,omitempty"`
}

// PhaseReport is one algorithm phase's wall time.
type PhaseReport struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// RestartReport is one hill-climb restart's outcome.
type RestartReport struct {
	// Restart is the 1-based restart index.
	Restart int `json:"restart"`
	// Iterations is the number of trials the restart ran, repeats
	// included.
	Iterations int `json:"iterations"`
	// Reused is the number of those trials whose ordered medoid list the
	// restart had already scored, and whose objective it reused without
	// running a trial (PROCLUS).
	Reused int `json:"reused"`
	// BestObjective is the lowest objective the restart reached.
	BestObjective float64 `json:"best_objective"`
	// Seconds is the restart's wall time.
	Seconds float64 `json:"seconds"`
}

// ClusterReport summarizes one output cluster.
type ClusterReport struct {
	// ID is the cluster's index, matching assignment vectors.
	ID int `json:"id"`
	// Size is the number of member points.
	Size int `json:"size"`
	// Medoid is the dataset index of the cluster's medoid, or -1 for
	// algorithms without a medoid notion.
	Medoid int `json:"medoid"`
	// Dimensions is the cluster's associated dimension set (0-based).
	Dimensions []int `json:"dimensions"`
}

// WriteJSON writes the report to w as indented JSON followed by a
// newline.
func (r *RunReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile writes the report as indented JSON to path.
func (r *RunReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
