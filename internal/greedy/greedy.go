// Package greedy implements the farthest-first traversal of Gonzalez
// (1985), which the PROCLUS initialization phase uses (paper Figure 3)
// to thin a random sample down to a candidate medoid set in which points
// are mutually well separated.
package greedy

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"proclus/internal/obs"
	"proclus/internal/parallel"
	"proclus/internal/randx"
)

// DistanceTo computes the distance from the candidate item at index i to
// the item at index j. Implementations are supplied by the caller so the
// traversal is agnostic to the point representation and metric.
type DistanceTo func(i, j int) float64

// BoundedDistanceTo is DistanceTo with an early-abandonment cutoff: it
// returns the distance from item i to item j, the number of coordinates
// visited, and whether the evaluation was abandoned because the partial
// sum already proved the distance strictly exceeds cutoff. An abandoned
// call returns a partial (lower-bounding) value that is itself > cutoff.
// A cutoff of +Inf must evaluate fully.
type BoundedDistanceTo func(i, j int, cutoff float64) (float64, int, bool)

// FarthestFirst selects k indices from [0, n) by farthest-first
// traversal: the first pick is uniform at random, and every subsequent
// pick maximizes the minimum distance to the picks so far. It returns
// the picks in selection order.
//
// Complexity is O(n·k) distance evaluations with O(n) auxiliary space,
// matching Figure 3 of the paper: after each pick the per-item distance
// to the closest chosen medoid is folded into a running minimum.
func FarthestFirst(r *randx.Rand, n, k int, d DistanceTo) ([]int, error) {
	return FarthestFirstParallel(r, n, k, 1, d)
}

// FarthestFirstParallel is FarthestFirst with the O(n) inner passes —
// the distance-fold after each pick and the arg-max scan for the next
// pick — sharded over up to workers goroutines. d must therefore be
// safe for concurrent calls. The picks are identical to the serial
// traversal for every worker count: shards fold and scan disjoint index
// ranges, the per-item minima involve no accumulation (only pairwise
// min), and the shard-wise arg-max reduction breaks ties toward the
// lower index exactly as the serial scan does. workers < 1 selects
// GOMAXPROCS.
func FarthestFirstParallel(r *randx.Rand, n, k, workers int, d DistanceTo) ([]int, error) {
	return farthestFirst(r, n, k, workers, d, nil, nil, nil)
}

// FarthestFirstBounded is the early-abandoning traversal: each fold
// evaluates bd against the item's running minimum, so hopeless
// candidates stop at the first coordinate that proves they cannot lower
// it. The picks are identical to the unpruned traversal for any worker
// count — an abandoned fold is one the unpruned fold would have
// rejected, because abandonment proves the distance strictly exceeds
// the running minimum — and the initial fill always runs with cutoff
// +Inf. lb, when non-nil, must lower-bound the distance (lb(i, j) ≤
// bd(i, j, +Inf) for all pairs); each fold first evaluates lb, and when
// the bound already reaches the item's running minimum the fold is
// skipped — the exact distance could not lower it either, so the picks
// are unchanged. c, when non-nil, receives the accounting: every
// started evaluation in DistanceEvals, split into DistanceEvalsFull and
// DistanceEvalsAbandoned, with the coordinates actually read in
// CoordsVisited, batched per chunk and chunking-independent.
func FarthestFirstBounded(r *randx.Rand, n, k, workers int, bd BoundedDistanceTo, lb DistanceTo, c *obs.Counters) ([]int, error) {
	if bd == nil {
		return nil, fmt.Errorf("greedy: FarthestFirstBounded requires a bounded distance function")
	}
	return farthestFirst(r, n, k, workers, nil, bd, lb, c)
}

// farthestFirst is the shared traversal. Exactly one of d and bd is
// non-nil: d is the plain distance, bd the early-abandoning one. The
// bounded path keeps the picks bit-identical to the plain path because
// the initial fill never abandons (cutoff +Inf) and an abandoned fold
// proves its distance strictly exceeds the running minimum, which is
// precisely the plain fold's rejection condition.
func farthestFirst(r *randx.Rand, n, k, workers int, d DistanceTo, bd BoundedDistanceTo, lb DistanceTo, c *obs.Counters) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("greedy: k = %d must be positive", k)
	}
	if k > n {
		return nil, fmt.Errorf("greedy: cannot choose %d of %d items", k, n)
	}
	picks := make([]int, 0, k)
	first := r.Intn(n)
	picks = append(picks, first)

	inf := math.Inf(1)
	minDist := make([]float64, n)
	parallel.For(n, workers, func(lo, hi int) {
		var coords int64
		for i := lo; i < hi; i++ {
			if bd != nil {
				v, seen, _ := bd(i, first, inf)
				minDist[i] = v
				coords += int64(seen)
			} else {
				minDist[i] = d(i, first)
			}
		}
		if c != nil {
			c.DistanceEvals.Add(int64(hi - lo))
			c.DistanceEvalsFull.Add(int64(hi - lo))
			c.CoordsVisited.Add(coords)
		}
	})
	chosen := make([]bool, n)
	chosen[first] = true

	// Each arg-max pass collects one candidate per shard; reducing them
	// in ascending shard order with a strict comparison keeps the lowest
	// index among equal maxima, matching the serial traversal's
	// tie-break.
	type shardBest struct {
		lo, idx int
		dist    float64
	}
	var mu sync.Mutex
	for len(picks) < k {
		var shards []shardBest
		parallel.For(n, workers, func(lo, hi int) {
			best, bestDist := -1, -1.0
			for i := lo; i < hi; i++ {
				if !chosen[i] && minDist[i] > bestDist {
					best, bestDist = i, minDist[i]
				}
			}
			mu.Lock()
			shards = append(shards, shardBest{lo: lo, idx: best, dist: bestDist})
			mu.Unlock()
		})
		sort.Slice(shards, func(a, b int) bool { return shards[a].lo < shards[b].lo })
		best, bestDist := -1, -1.0
		for _, sb := range shards {
			if sb.idx >= 0 && sb.dist > bestDist {
				best, bestDist = sb.idx, sb.dist
			}
		}
		if best < 0 {
			// Unreachable while k <= n, but keep the invariant explicit.
			return nil, fmt.Errorf("greedy: no remaining candidates at pick %d", len(picks))
		}
		picks = append(picks, best)
		chosen[best] = true
		pick := best
		parallel.For(n, workers, func(lo, hi int) {
			var folded, aband, coords int64
			for i := lo; i < hi; i++ {
				if chosen[i] {
					continue
				}
				if lb != nil && lb(i, pick) >= minDist[i] {
					// The exact distance is at least the bound, so it cannot
					// lower the running minimum — the fold below would reject
					// it. Skipping keeps the minima, and hence every pick,
					// bit-identical.
					continue
				}
				if bd != nil {
					nd, seen, ab := bd(i, pick, minDist[i])
					coords += int64(seen)
					if ab {
						aband++
					} else if nd < minDist[i] {
						minDist[i] = nd
					}
				} else if nd := d(i, pick); nd < minDist[i] {
					minDist[i] = nd
				}
				folded++
			}
			if c != nil && folded > 0 {
				c.DistanceEvals.Add(folded)
				c.DistanceEvalsFull.Add(folded - aband)
				c.DistanceEvalsAbandoned.Add(aband)
				c.CoordsVisited.Add(coords)
			}
		})
	}
	return picks, nil
}
