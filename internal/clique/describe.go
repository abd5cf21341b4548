package clique

import (
	"fmt"
	"sort"
	"strings"
)

// Region is an axis-parallel hyper-rectangle of grid units within one
// subspace: on subspace dimension Dims[i] it spans interval indices
// Lo[i] through Hi[i] inclusive. Regions are the vocabulary of CLIQUE's
// cluster descriptions ("connects axis-parallel units to form the
// reported rectangular regions", PROCLUS paper §1.1).
type Region struct {
	Dims []int
	Lo   []int
	Hi   []int
}

// Contains reports whether the unit with the given intervals (aligned
// with the region's Dims) lies inside the region.
func (r Region) Contains(intervals []int) bool {
	for i := range r.Dims {
		if intervals[i] < r.Lo[i] || intervals[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Units returns the number of grid units the region covers.
func (r Region) Units() int {
	n := 1
	for i := range r.Dims {
		n *= r.Hi[i] - r.Lo[i] + 1
	}
	return n
}

// String renders the region as a conjunction of interval ranges, e.g.
// "3 ≤ d2 < 5 ∧ 7 ≤ d9 < 8" in grid units.
func (r Region) String() string {
	parts := make([]string, len(r.Dims))
	for i := range r.Dims {
		parts[i] = fmt.Sprintf("%d≤d%d<%d", r.Lo[i], r.Dims[i], r.Hi[i]+1)
	}
	return strings.Join(parts, " ∧ ")
}

// Describe computes a compact cover of the cluster's dense units by
// maximal axis-parallel regions, following CLIQUE's description step:
// greedily grow a maximal region from each yet-uncovered unit, then
// discard regions whose units are all covered by others. The cover is
// exact — the union of the returned regions is precisely the cluster's
// unit set — and deterministic.
func Describe(cl Cluster) []Region {
	if len(cl.Units) == 0 {
		return nil
	}
	unitSet := make(map[string]bool, len(cl.Units))
	keys := make([]string, 0, len(cl.Units))
	for _, u := range cl.Units {
		k := unitKey(u.Intervals)
		unitSet[k] = true
		keys = append(keys, k)
	}
	sort.Strings(keys)

	covered := map[string]bool{}
	var regions []Region
	for _, start := range keys {
		if covered[start] {
			continue
		}
		reg := growRegion(cl.Dims, decodeKey(start), unitSet)
		markCovered(reg, covered)
		regions = append(regions, reg)
	}
	return minimizeCover(regions)
}

// unitKey encodes a unit's intervals as a string map key, one byte per
// interval. Describe runs off the fit path and probes one interval past
// the grid's last (Hi+1 == Xi, still a byte since Xi ≤ 255), so it keys
// units by intervals alone rather than by the fit's base-Xi keys.
func unitKey(intervals []int) string {
	b := make([]byte, len(intervals))
	for i, iv := range intervals {
		b[i] = byte(iv)
	}
	return string(b)
}

func decodeKey(key string) []int {
	out := make([]int, len(key))
	for i := 0; i < len(key); i++ {
		out[i] = int(key[i])
	}
	return out
}

// growRegion grows a region greedily from a seed unit: for each
// dimension in turn it extends the region downward and upward as long as
// every unit in the extended slab is dense.
func growRegion(dims []int, seed []int, unitSet map[string]bool) Region {
	q := len(dims)
	reg := Region{
		Dims: append([]int(nil), dims...),
		Lo:   append([]int(nil), seed...),
		Hi:   append([]int(nil), seed...),
	}
	for pos := 0; pos < q; pos++ {
		for reg.Lo[pos] > 0 && slabDense(reg, pos, reg.Lo[pos]-1, unitSet) {
			reg.Lo[pos]--
		}
		for slabDense(reg, pos, reg.Hi[pos]+1, unitSet) {
			reg.Hi[pos]++
		}
	}
	return reg
}

// slabDense reports whether every unit of the region's cross-section at
// interval value v on dimension position pos is dense.
func slabDense(reg Region, pos, v int, unitSet map[string]bool) bool {
	intervals := make([]int, len(reg.Dims))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(reg.Dims) {
			return unitSet[unitKey(intervals)]
		}
		if i == pos {
			intervals[i] = v
			return rec(i + 1)
		}
		for x := reg.Lo[i]; x <= reg.Hi[i]; x++ {
			intervals[i] = x
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// markCovered adds every unit of reg to the covered set.
func markCovered(reg Region, covered map[string]bool) {
	forEachUnit(reg, func(k string) { covered[k] = true })
}

func forEachUnit(reg Region, fn func(key string)) {
	intervals := make([]int, len(reg.Dims))
	var rec func(i int)
	rec = func(i int) {
		if i == len(reg.Dims) {
			fn(unitKey(intervals))
			return
		}
		for x := reg.Lo[i]; x <= reg.Hi[i]; x++ {
			intervals[i] = x
			rec(i + 1)
		}
	}
	rec(0)
}

// minimizeCover removes regions every one of whose units is covered by
// some other region (the greedy set-cover reduction of the CLIQUE
// description step). Regions are considered largest-first so small
// redundant fragments are dropped in favour of large rectangles.
func minimizeCover(regions []Region) []Region {
	if len(regions) <= 1 {
		return regions
	}
	order := make([]int, len(regions))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := regions[order[a]], regions[order[b]]
		if ra.Units() != rb.Units() {
			return ra.Units() > rb.Units()
		}
		return less2(ra, rb)
	})
	coverCount := map[string]int{}
	for _, reg := range regions {
		forEachUnit(reg, func(k string) { coverCount[k]++ })
	}
	kept := make([]bool, len(regions))
	for i := range kept {
		kept[i] = true
	}
	// Try dropping regions smallest-first.
	for i := len(order) - 1; i >= 0; i-- {
		idx := order[i]
		redundant := true
		forEachUnit(regions[idx], func(k string) {
			if coverCount[k] <= 1 {
				redundant = false
			}
		})
		if redundant {
			kept[idx] = false
			forEachUnit(regions[idx], func(k string) { coverCount[k]-- })
		}
	}
	var out []Region
	for i, reg := range regions {
		if kept[i] {
			out = append(out, reg)
		}
	}
	return out
}

func less2(a, b Region) bool {
	for i := range a.Lo {
		if a.Lo[i] != b.Lo[i] {
			return a.Lo[i] < b.Lo[i]
		}
	}
	return false
}
