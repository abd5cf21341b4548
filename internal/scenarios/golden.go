package scenarios

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"proclus/internal/obs"
)

// CounterTolerance is the relative drift allowed on every pinned work
// counter before the gate fails. The counters are bit-for-bit
// deterministic for a fixed seed, so any drift means the code changed;
// the tolerance absorbs small deliberate tweaks without a golden regen
// while still catching real work regressions.
const CounterTolerance = 0.05

// floorMargin is how far below the measured quality the regenerated
// floors sit: enough headroom that an unrelated change shifting a few
// points does not trip the gate, tight enough that a real quality
// regression does.
const floorMargin = 0.03

// GoldenCell pins one cell's expected behaviour: the quality measured
// at regeneration time (informational), the hard floors derived from
// it, and the exact work counters of the seeded run.
type GoldenCell struct {
	Label    string             `json:"label"`
	Algo     string             `json:"algo"`
	Quality  map[string]float64 `json:"quality"`
	Floors   map[string]float64 `json:"floors"`
	Counters obs.Snapshot       `json:"counters"`
}

// Golden is one scenario's committed expectation file.
type Golden struct {
	Scenario    string       `json:"scenario"`
	Description string       `json:"description"`
	Cells       []GoldenCell `json:"cells"`
}

// GoldenPath returns the committed golden path for a scenario, relative
// to the package directory (where go test runs).
func GoldenPath(scenario string) string {
	return filepath.Join("golden", scenario+".json")
}

// CurrentPath is where CompareScenario dumps the measured outcomes on a
// mismatch, so CI can upload them as an artifact and a regen is a file
// rename away. The *.current.json pattern is gitignored.
func CurrentPath(scenario string) string {
	return filepath.Join("golden", scenario+".current.json")
}

// LoadGolden reads a scenario's committed golden.
func LoadGolden(scenario string) (*Golden, error) {
	raw, err := os.ReadFile(GoldenPath(scenario))
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", scenario, err)
	}
	return &g, nil
}

// WriteGolden writes g to path with stable formatting.
func WriteGolden(path string, g *Golden) error {
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// NewGolden derives a scenario's golden from freshly measured
// outcomes: floors are the measured quality minus floorMargin, and the
// counters are pinned exactly.
func NewGolden(sc Scenario, outcomes map[string]Outcome) *Golden {
	g := &Golden{Scenario: sc.Name, Description: sc.Description}
	for _, cell := range sc.Cells {
		out := outcomes[cell.Label]
		floors := make(map[string]float64, len(out.Quality))
		for k, v := range out.Quality {
			floors[k] = math.Round((v-floorMargin)*1000) / 1000
		}
		g.Cells = append(g.Cells, GoldenCell{
			Label: cell.Label, Algo: cell.Algo,
			Quality: out.Quality, Floors: floors, Counters: out.Counters,
		})
	}
	return g
}

// CompareCell checks one measured outcome against its golden: every
// floor is a hard minimum, and every pinned counter must stay within
// CounterTolerance relatively. The returned strings describe the
// violations, empty when the cell passes.
func CompareCell(g GoldenCell, got Outcome) []string {
	var bad []string
	keys := make([]string, 0, len(g.Floors))
	for k := range g.Floors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		floor := g.Floors[k]
		v, ok := got.Quality[k]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: quality %q not measured (floor %.3f)", g.Label, k, floor))
			continue
		}
		if v < floor {
			bad = append(bad, fmt.Sprintf("%s: %s %.3f below floor %.3f", g.Label, k, v, floor))
		}
	}
	bad = append(bad, compareCounters(g.Label, g.Counters, got.Counters)...)
	return bad
}

// compareCounters diffs two counter snapshots field by field with the
// relative tolerance CounterTolerance. A counter that was zero in the
// golden must stay zero: work appearing on a formerly idle counter is a
// behaviour change, not drift.
func compareCounters(label string, want, got obs.Snapshot) []string {
	var bad []string
	wv := reflect.ValueOf(want)
	gv := reflect.ValueOf(got)
	t := wv.Type()
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Type.Kind() != reflect.Int64 {
			continue
		}
		w := wv.Field(i).Int()
		g := gv.Field(i).Int()
		if w == g {
			continue
		}
		name := t.Field(i).Name
		if w == 0 {
			bad = append(bad, fmt.Sprintf("%s: counter %s appeared (0 → %d)", label, name, g))
			continue
		}
		rel := math.Abs(float64(g-w)) / math.Abs(float64(w))
		if rel > CounterTolerance {
			bad = append(bad, fmt.Sprintf("%s: counter %s drifted %.1f%% (%d → %d, tolerance %.0f%%)",
				label, name, 100*rel, w, g, 100*CounterTolerance))
		}
	}
	return bad
}

// CompareScenario runs every cell of sc on its dataset and diffs the
// outcomes against the committed golden. On any violation the measured
// outcomes are written to CurrentPath for inspection/regen and the
// violations are returned.
func CompareScenario(sc Scenario) ([]string, error) {
	g, err := LoadGolden(sc.Name)
	if err != nil {
		return nil, err
	}
	outcomes, err := runScenario(sc)
	if err != nil {
		return nil, err
	}
	var bad []string
	seen := map[string]bool{}
	for _, cell := range g.Cells {
		out, ok := outcomes[cell.Label]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: golden cell missing from the scenario table", cell.Label))
			continue
		}
		seen[cell.Label] = true
		bad = append(bad, CompareCell(cell, out)...)
	}
	for _, cell := range sc.Cells {
		if !seen[cell.Label] {
			bad = append(bad, fmt.Sprintf("%s: table cell missing from the golden (regenerate with -update)", cell.Label))
		}
	}
	if len(bad) > 0 {
		if err := WriteGolden(CurrentPath(sc.Name), NewGolden(sc, outcomes)); err != nil {
			return bad, err
		}
	}
	return bad, nil
}

// runScenario generates the scenario's dataset once and fits every
// cell on it.
func runScenario(sc Scenario) (map[string]Outcome, error) {
	ds, err := sc.Data()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	outcomes := make(map[string]Outcome, len(sc.Cells))
	for _, cell := range sc.Cells {
		out, err := RunCell(ds, cell)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		outcomes[cell.Label] = out
	}
	return outcomes, nil
}
