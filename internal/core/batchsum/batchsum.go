// Package batchsum implements the paper's batch-update algorithm for
// prefix-sum arrays (§5). In the OLAP model, updates accumulate over a
// period and are applied together; a single point update may touch O(N)
// prefix sums in the worst case, but a batch of k updates can be applied by
// partitioning all affected P entries into at most ∏_{j=0}^{d−1}(k+j)/d!
// disjoint rectangular update-class regions (Theorem 2), each receiving one
// combined value-to-add, so every affected entry is written exactly once.
package batchsum

import (
	"cmp"
	"fmt"
	"slices"

	"rangecube/internal/algebra"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
)

// Update is one queued update in the paper's (location, value-to-add) form:
// Delta is the new cell value minus the previous one (§5.1).
type Update[T any] struct {
	Coords []int
	Delta  T
}

// IntUpdate is an Update for the canonical int64 SUM measure.
type IntUpdate = Update[int64]

// ForEachRegion runs the §5.1 recursive partitioning over the given index
// space and visits every non-empty update-class region together with its
// combined value-to-add. Regions are disjoint rectangles (Properties 1 and
// 2) whose union is exactly the set of affected P entries. The visit
// callback must not retain the region. It returns the number of regions
// visited.
func ForEachRegion[T any, G algebra.Group[T]](shape []int, updates []Update[T], visit func(r ndarray.Region, delta T)) int {
	d := len(shape)
	for _, u := range updates {
		if len(u.Coords) != d {
			panic(fmt.Sprintf("batchsum: update %v has %d coordinates for a %d-dimensional space", u.Coords, len(u.Coords), d))
		}
		for j, x := range u.Coords {
			if x < 0 || x >= shape[j] {
				panic(fmt.Sprintf("batchsum: update location %v out of bounds for shape %v", u.Coords, shape))
			}
		}
	}
	if len(updates) == 0 {
		return 0
	}
	prefix := make(ndarray.Region, d)
	ups := append([]Update[T](nil), updates...)
	slices.SortStableFunc(ups, func(a, b Update[T]) int { return cmp.Compare(a.Coords[0], b.Coords[0]) })
	// One scratch list per recursion depth below the first, in one backing
	// array: depth j's holds the updates carried into it, sorted by dimension j.
	scratch := make([][]Update[T], d)
	backing := make([]Update[T], len(ups)*(d-1))
	for j := 1; j < d; j++ {
		scratch[j] = backing[(j-1)*len(ups) : j*len(ups)]
	}
	return forEach[T, G](shape, 0, ups, prefix, scratch, visit)
}

// forEach recursively partitions dimension j at the sorted update indices:
// region i, from update i's index up to the next one's, carries the first
// i+1 updates into the (d−1)-dimensional sub-problem, and in the last
// dimension takes their combined value-to-add V_i = v_1 ⊕ ... ⊕ v_i. ups is
// sorted by dimension j (stably, so updates tied there keep their order) and
// is not modified; prefix holds the ranges already fixed for dimensions < j;
// scratch[j+1] is this call's to fill. The carried updates are kept sorted by
// dimension j+1 by inserting each after the ones it ties with, which is the
// order a stable sort of the first i+1 would give.
func forEach[T any, G algebra.Group[T]](shape []int, j int, ups []Update[T], prefix ndarray.Region, scratch [][]Update[T], visit func(ndarray.Region, T)) int {
	var g G
	last := j == len(shape)-1
	var carried []Update[T]
	if !last {
		carried = scratch[j+1][:0]
	}
	cum := g.Identity()
	count := 0
	for i := range ups {
		if last {
			cum = g.Combine(cum, ups[i].Delta)
		} else {
			x := ups[i].Coords[j+1]
			at, _ := slices.BinarySearchFunc(carried, x+1, func(u Update[T], x int) int { return cmp.Compare(u.Coords[j+1], x) })
			carried = slices.Insert(carried, at, ups[i])
		}
		hi := shape[j] - 1
		if i+1 < len(ups) {
			hi = ups[i+1].Coords[j] - 1
		}
		if ups[i].Coords[j] > hi {
			continue // a duplicate index: an empty region, its deltas combine into the next
		}
		prefix[j] = ndarray.Range{Lo: ups[i].Coords[j], Hi: hi}
		if last {
			visit(prefix, cum)
			count++
		} else {
			count += forEach[T, G](shape, j+1, carried, prefix, scratch, visit)
		}
	}
	return count
}

// Apply performs the combined update of P for the queued updates and
// returns the number of update-class regions used. Each affected P entry is
// combined with its region's value-to-add exactly once. It does not touch
// the original cube (in the basic algorithm the cube may have been
// discarded).
//
// The update-class regions are disjoint (Property 2), so they are applied
// through the line kernels with the region list sharded across the worker
// pool; each worker accounts into a private metrics.Counter shard and the
// shards are merged into c at the end, keeping totals identical to a
// sequential run while the hot loops stay free of shared writes. Batches
// whose total affected volume is small run inline on the caller's
// goroutine.
func Apply[T any, G algebra.Group[T]](ps *prefixsum.Array[T, G], updates []Update[T], c *metrics.Counter) int {
	// A counting pass sizes the region list, whose bounds share one backing
	// array: region i is bounds[i·d : (i+1)·d].
	vol := 0
	count := ForEachRegion[T, G](ps.Shape(), updates, func(r ndarray.Region, _ T) { vol += r.Volume() })
	if count == 0 {
		return 0
	}
	d := ps.Dims()
	bounds := make(ndarray.Region, 0, count*d)
	deltas := make([]T, 0, count)
	ForEachRegion[T, G](ps.Shape(), updates, func(r ndarray.Region, delta T) {
		bounds = append(bounds, r...)
		deltas = append(deltas, delta)
	})
	shards := make([]metrics.Counter, parallel.Workers())
	parallel.For(count, vol, func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			ps.AddRegion(bounds[i*d:(i+1)*d], deltas[i], &shards[w])
		}
	})
	for i := range shards {
		c.Merge(&shards[i])
	}
	return count
}

// ApplyInt is Apply for the canonical int64 SUM prefix-sum array.
func ApplyInt(ps *prefixsum.IntArray, updates []IntUpdate, c *metrics.Counter) int {
	return Apply[int64, algebra.IntSum](ps, updates, c)
}

// ApplyBlocked runs the §5.2 batch update of a blocked prefix-sum structure
// the way a serving engine does: each update goes at once to the retained
// cube and to the edge arrays' entries covering it, and is queued, combined
// per block, for packed (ApplyQueued); whenever the queue fills, Flush folds
// it into packed in one pass. It checks after every update, not once per
// batch: a queue insert costs O(queue), and a batch of any size must keep
// the queue at most ⌈√N⌉ blocks long (N the packed entries). It returns the
// number of blocks folded: 0 while the queue has room.
func ApplyBlocked[T any, G algebra.Group[T]](bl *blocked.Array[T, G], updates []Update[T], c *metrics.Counter) int {
	folded := 0
	for ; len(updates) > 0; updates = updates[1:] {
		if _, full := bl.ApplyQueued(updates[0].Coords, updates[0].Delta, c); full {
			folded += bl.Flush(c)
		}
	}
	return folded
}

// ApplyBlockedInt is ApplyBlocked for the canonical int64 SUM measure.
func ApplyBlockedInt(bl *blocked.IntArray, updates []IntUpdate, c *metrics.Counter) int {
	return ApplyBlocked[int64, algebra.IntSum](bl, updates, c)
}

// MaxRegions returns the Theorem 2 bound ∏_{j=0}^{d−1}(k+j)/d! on the
// number of update-class regions for k updates in d dimensions.
func MaxRegions(k, d int) int64 {
	num := int64(1)
	for j := 0; j < d; j++ {
		num *= int64(k + j)
	}
	den := int64(1)
	for j := 2; j <= d; j++ {
		den *= int64(j)
	}
	return num / den
}
