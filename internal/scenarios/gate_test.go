package scenarios

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the scenario goldens")

// TestScenarioGate is the robustness gate: every scenario's cells are
// rerun and held to the committed quality floors and counter pins.
// Regenerate deliberately with
// `go test ./internal/scenarios -run '^TestScenarioGate$' -update`.
func TestScenarioGate(t *testing.T) {
	for _, sc := range Table() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			if *update {
				outcomes, err := runScenario(sc)
				if err != nil {
					t.Fatal(err)
				}
				if err := WriteGolden(GoldenPath(sc.Name), NewGolden(sc, outcomes)); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s", GoldenPath(sc.Name))
				return
			}
			bad, err := CompareScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range bad {
				t.Error(b)
			}
			if len(bad) > 0 {
				t.Logf("measured outcomes written to %s", CurrentPath(sc.Name))
			}
		})
	}
}

// TestScenarioGateRejectsPerturbed proves the gate actually bites:
// goldens perturbed the way a regression would look — floors the run
// cannot reach, counters far from the measured work — must fail the
// comparison.
func TestScenarioGateRejectsPerturbed(t *testing.T) {
	sc := Table()[1] // oriented: cheapest scenario with multiple cells
	outcomes, err := runScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGolden(sc, outcomes)

	raised := g.Cells[0]
	raised.Floors = map[string]float64{"ari": 1.01}
	if bad := CompareCell(raised, outcomes[raised.Label]); len(bad) == 0 {
		t.Error("unreachable quality floor passed the gate")
	}

	drifted := g.Cells[0]
	drifted.Counters.DistanceEvals *= 10
	if bad := CompareCell(drifted, outcomes[drifted.Label]); len(bad) == 0 {
		t.Error("10x counter drift passed the gate")
	}

	missing := g.Cells[0]
	missing.Floors = map[string]float64{"silhouette": 0.5}
	if bad := CompareCell(missing, outcomes[missing.Label]); len(bad) == 0 {
		t.Error("floor on an unmeasured quality key passed the gate")
	}
}

// TestGoldenRoundTrip exercises the write/load path against a temp
// directory and checks derived floors sit below the measured quality.
func TestGoldenRoundTrip(t *testing.T) {
	sc := Table()[1]
	outcomes, err := runScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGolden(sc, outcomes)
	if g.Scenario != sc.Name || len(g.Cells) != len(sc.Cells) {
		t.Fatalf("derived golden shape: %+v", g)
	}
	for _, cell := range g.Cells {
		for k, floor := range cell.Floors {
			if q := cell.Quality[k]; floor > q {
				t.Errorf("%s: floor %s %.3f above measured %.3f", cell.Label, k, floor, q)
			}
		}
		if bad := CompareCell(cell, outcomes[cell.Label]); len(bad) != 0 {
			t.Errorf("%s: fresh golden fails its own outcome: %v", cell.Label, bad)
		}
	}
	path := filepath.Join(t.TempDir(), "golden", sc.Name+".json")
	if err := WriteGolden(path, g); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"floors"`) {
		t.Errorf("golden file missing floors:\n%.200s", raw)
	}
}

// TestTableWellFormed pins structural invariants of the suite itself:
// scenario names and cell labels are unique, every scenario holds at
// least one cell, and the suite as a whole covers at least two
// algorithms so it always cross-compares them.
func TestTableWellFormed(t *testing.T) {
	names := map[string]bool{}
	algos := map[string]bool{}
	for _, sc := range Table() {
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		if len(sc.Cells) == 0 {
			t.Errorf("scenario %s has no cells", sc.Name)
		}
		labels := map[string]bool{}
		for _, cell := range sc.Cells {
			if labels[cell.Label] {
				t.Errorf("scenario %s: duplicate cell label %q", sc.Name, cell.Label)
			}
			labels[cell.Label] = true
			algos[cell.Algo] = true
		}
		if _, err := os.Stat(GoldenPath(sc.Name)); err != nil {
			t.Errorf("scenario %s has no committed golden: %v", sc.Name, err)
		}
	}
	if len(algos) < 2 {
		t.Errorf("suite covers %d algorithms, want >= 2", len(algos))
	}
}
