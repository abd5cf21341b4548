package core

import (
	"fmt"
	"math"
	"testing"

	"proclus/internal/dist"
	"proclus/internal/randx"
)

// referenceRefine is the refinement rule in its two-step form: the
// nearest medoid first, by segmental distance or, when manhattan is
// set, by the reference's unnormalized Manhattan distance, then the
// sphere-of-influence scan, which stops at the first sphere that holds
// the point. refineRows must agree with it on every point under the
// segmental distance.
func referenceRefine(pt []float64, medoids [][]float64, dims [][]int, delta []float64, manhattan bool) int {
	a, best := 0, math.Inf(1)
	for m := range medoids {
		v := dist.Segmental(pt, medoids[m], dims[m])
		if manhattan {
			v *= float64(len(dims[m]))
		}
		if v < best {
			a, best = m, v
		}
	}
	if delta != nil && outsideSpheres(pt, medoids, dims, delta) {
		return OutlierID
	}
	return a
}

// outsideSpheres reports whether pt's segmental distance over D_i
// exceeds Δ_i for every medoid i.
func outsideSpheres(pt []float64, medoids [][]float64, dims [][]int, delta []float64) bool {
	for i := range medoids {
		if dist.Segmental(pt, medoids[i], dims[i]) <= delta[i] {
			return false
		}
	}
	return true
}

// refineCase draws n points in d dimensions with small-integer
// coordinates, k medoids among them with random dimension sets, the
// medoids' true spheres of influence, and radii drawn from the same
// grid.
func refineCase(rng *randx.Rand, n, d, k int) (rows []float64, medoids [][]float64, dims [][]int, radii, grid []float64) {
	rows = make([]float64, n*d)
	for i := range rows {
		rows[i] = float64(rng.Intn(4))
	}
	medoids = make([][]float64, k)
	dims = make([][]int, k)
	for m := range medoids {
		medoids[m] = rows[rng.Intn(n)*d:][:d]
		perm := rng.Perm(d)
		dims[m] = perm[:1+rng.Intn(d)]
	}
	radii = make([]float64, k)
	grid = make([]float64, k)
	for i := range radii {
		radii[i] = math.Inf(1)
		for j := range medoids {
			if i != j {
				radii[i] = math.Min(radii[i], dist.Segmental(medoids[i], medoids[j], dims[i]))
			}
		}
		grid[i] = float64(rng.Intn(7)) / 2
	}
	return rows, medoids, dims, radii, grid
}

// edgeValues are coordinates whose segmental distances take the values
// at the ends of the float64 range: equal coordinates give +0, the
// subnormal steps give subnormal distances (or +0 once averaged over
// several dimensions), and ±1e308 give +Inf, as their difference
// overflows.
var edgeValues = []float64{0, math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 1e-310, 1, 1e308, -1e308}

// edgeCase is refineCase over edgeValues: rows, medoids among them,
// random dimension sets, and the medoids' true spheres of influence,
// which take the same edge values. grid draws each radius from +0, a
// subnormal, 1 and +Inf.
func edgeCase(rng *randx.Rand, n, d, k int) (rows []float64, medoids [][]float64, dims [][]int, radii, grid []float64) {
	rows = make([]float64, n*d)
	for i := range rows {
		rows[i] = edgeValues[rng.Intn(len(edgeValues))]
	}
	medoids = make([][]float64, k)
	dims = make([][]int, k)
	for m := range medoids {
		medoids[m] = rows[rng.Intn(n)*d:][:d]
		dims[m] = rng.Perm(d)[:1+rng.Intn(d)]
	}
	radii = make([]float64, k)
	grid = make([]float64, k)
	for i := range radii {
		radii[i] = math.Inf(1)
		for j := range medoids {
			if i != j {
				radii[i] = math.Min(radii[i], dist.Segmental(medoids[i], medoids[j], dims[i]))
			}
		}
		grid[i] = []float64{0, math.SmallestNonzeroFloat64, 1, math.Inf(1)}[rng.Intn(4)]
	}
	return rows, medoids, dims, radii, grid
}

// checkRefine refines rows whole and in uneven row ranges with each set
// of radii, and compares every point with the two-step rule. It returns
// the number of outliers the rule flagged.
func checkRefine(t *testing.T, rng *randx.Rand, name string, rows []float64, d int, medoids [][]float64, dims [][]int,
	radii map[string][]float64) (outliers int) {
	t.Helper()
	n := len(rows) / d
	for dname, delta := range radii {
		whole := make([]int, n)
		refineRows(rows, d, medoids, dims, delta, whole)
		split := make([]int, n)
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(50))
			refineRows(rows[lo*d:hi*d], d, medoids, dims, delta, split[lo:hi])
			lo = hi
		}
		for p := 0; p < n; p++ {
			want := referenceRefine(rows[p*d:(p+1)*d], medoids, dims, delta, false)
			if want == OutlierID {
				outliers++
			}
			if whole[p] != want || split[p] != want {
				t.Fatalf("%s delta=%s: point %d refined to %d whole, %d in ranges, want %d",
					name, dname, p, whole[p], split[p], want)
			}
		}
	}
	return outliers
}

// TestRefineRowsMatchesReference checks the one-pass refinement kernel
// against the two-step rule on random data. Coordinates are small
// integers, so distances tie between medoids and land exactly on a
// radius; the radii are the medoids' true spheres of influence, values
// drawn from the same grid, or +Inf, which flags no outlier. Each point
// set is refined whole and in uneven row ranges, which must not change
// a decision. The tile cases run 2·assignTile + 37 points with up to 13
// medoids, so the kernel's tiles end inside the points and the final
// tile is partial. The edge cases draw coordinates from edgeValues, so
// distances are +0, subnormal or +Inf, with radii of +0, a subnormal,
// 1, +Inf and the true spheres.
func TestRefineRowsMatchesReference(t *testing.T) {
	rng := randx.New(5)
	outliers := 0
	for trial := 0; trial < 40; trial++ {
		d, k := 2+rng.Intn(6), 1+rng.Intn(5)
		rows, medoids, dims, radii, grid := refineCase(rng, 300, d, k)
		outliers += checkRefine(t, rng, fmt.Sprintf("trial %d d=%d k=%d", trial, d, k), rows, d, medoids, dims,
			map[string][]float64{"radii": radii, "grid": grid, "inf": infRadii(k)})
	}
	for _, k := range []int{1, 5, 13} {
		const d = 6
		rows, medoids, dims, radii, grid := refineCase(rng, 2*assignTile+37, d, k)
		outliers += checkRefine(t, rng, fmt.Sprintf("tiles d=%d k=%d", d, k), rows, d, medoids, dims,
			map[string][]float64{"radii": radii, "grid": grid})
	}
	if outliers == 0 {
		t.Error("no point fell outside every sphere: the outlier rule went untested")
	}

	// Distances and radii at the ends of the range: refineRows compares
	// the bits of each distance, which must order as the float compare
	// does for +0, subnormal, normal and +Inf values alike.
	seen := map[string]bool{}
	for trial := 0; trial < 60; trial++ {
		d, k := 1+rng.Intn(4), 1+rng.Intn(6)
		rows, medoids, dims, radii, grid := edgeCase(rng, 2*assignTile+37, d, k)
		for m := range medoids {
			for p := 0; p < len(rows)/d; p++ {
				switch v := dist.Segmental(rows[p*d:(p+1)*d], medoids[m], dims[m]); {
				case v == 0:
					seen["+0"] = true
				case v < 0x1p-1022:
					seen["subnormal"] = true
				case math.IsInf(v, 1):
					seen["+Inf"] = true
				}
			}
		}
		zero := make([]float64, k)
		checkRefine(t, rng, fmt.Sprintf("edges %d d=%d k=%d", trial, d, k), rows, d, medoids, dims,
			map[string][]float64{"radii": radii, "grid": grid, "zero": zero, "inf": infRadii(k)})
	}
	for _, kind := range []string{"+0", "subnormal", "+Inf"} {
		if !seen[kind] {
			t.Errorf("no %s distance arose: the edge cases went untested", kind)
		}
	}
}
