package experiments

import (
	"testing"

	"proclus/internal/obs"
)

// table1Counters are the work counters of the paper's Table 1 run
// (Case 1, §4.2) at N = 3000 and seed 3. They are deterministic for a
// fixed seed and independent of the worker count, so any difference
// means the algorithm now does different work. An intended shift (a
// change to which distances a pass evaluates, or over how many
// dimensions, say) is a deliberate edit of this literal.
var table1Counters = obs.Snapshot{
	DistanceEvals:          1262696,
	DistanceEvalsFull:      1262696,
	DistanceEvalsAbandoned: 0,
	CoordsVisited:          10955660,
	PointsScanned:          747000,
	DenseUnitProbes:        0,
	DistCacheHits:          1862480,
	DistCacheRecomputes:    152450,
}

// TestTable1WorkCountersExact pins table1's run count and every work
// counter exactly, at one and two workers.
func TestTable1WorkCountersExact(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := CaseParams{N: 3000, Seed: 3, Workers: workers}
		_, rep, err := Table1(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Timing; got.Runs != 1 || got.Counters != table1Counters {
			t.Errorf("workers=%d: got runs %d, counters\n%+v\nwant runs 1, counters\n%+v",
				workers, got.Runs, got.Counters, table1Counters)
		}
	}
}
