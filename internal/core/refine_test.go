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
// a decision. The last cases run 2·assignTile + 37 points with up to 13
// medoids, so the kernel's tiles end inside the points and the final
// tile is partial.
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
}
