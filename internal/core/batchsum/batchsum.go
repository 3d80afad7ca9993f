// Package batchsum implements the paper's batch-update algorithm for
// prefix-sum arrays (§5). In the OLAP model, updates accumulate over a
// period and are applied together; a single point update may touch O(N)
// prefix sums in the worst case, but a batch of k updates can be applied by
// partitioning all affected P entries into at most ∏_{j=0}^{d−1}(k+j)/d!
// disjoint rectangular update-class regions (Theorem 2), each receiving one
// combined value-to-add, so every affected entry is written exactly once.
package batchsum

import (
	"fmt"
	"sort"

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
	return forEach[T, G](shape, 0, ups, prefix, visit)
}

// forEach recursively partitions dimension j. ups is owned by this call and
// may be re-sorted; prefix holds the ranges already fixed for dimensions
// < j.
func forEach[T any, G algebra.Group[T]](shape []int, j int, ups []Update[T], prefix ndarray.Region, visit func(ndarray.Region, T)) int {
	var g G
	sort.SliceStable(ups, func(a, b int) bool { return ups[a].Coords[j] < ups[b].Coords[j] })
	count := 0
	if j == len(shape)-1 {
		// One-dimensional base case: k+1 adjoining regions with cumulative
		// combined values-to-add V_i = v_1 ⊕ ... ⊕ v_i.
		cum := g.Identity()
		for i := range ups {
			cum = g.Combine(cum, ups[i].Delta)
			hi := shape[j] - 1
			if i+1 < len(ups) {
				hi = ups[i+1].Coords[j] - 1
			}
			lo := ups[i].Coords[j]
			if lo > hi {
				continue // duplicate index: empty region, deltas combine into the next
			}
			prefix[j] = ndarray.Range{Lo: lo, Hi: hi}
			visit(prefix, cum)
			count++
		}
		return count
	}
	// Partition dimension j at the sorted update indices; region i carries
	// the first i+1 updates into the (d−1)-dimensional sub-problem.
	for i := range ups {
		hi := shape[j] - 1
		if i+1 < len(ups) {
			hi = ups[i+1].Coords[j] - 1
		}
		lo := ups[i].Coords[j]
		if lo > hi {
			continue
		}
		prefix[j] = ndarray.Range{Lo: lo, Hi: hi}
		// Copy the carried updates: the recursion re-sorts by dimension
		// j+1 and must not disturb this level's order.
		carried := append([]Update[T](nil), ups[:i+1]...)
		count += forEach[T, G](shape, j+1, carried, prefix, visit)
	}
	return count
}

// Apply performs the combined update of P for the queued updates and
// returns the number of update-class regions used. Each affected P entry is
// combined with its region's value-to-add exactly once. It does not touch
// the original cube (in the basic algorithm the cube may have been
// discarded); use ApplyToCube for callers that retain A.
//
// The update-class regions are disjoint (Property 2), so they are applied
// through the line kernels with the region list sharded across the worker
// pool; each worker accounts into a private metrics.Counter shard and the
// shards are merged into c at the end, keeping totals identical to a
// sequential run while the hot loops stay free of shared writes. Batches
// whose total affected volume is small run inline on the caller's
// goroutine.
func Apply[T any, G algebra.Group[T]](ps *prefixsum.Array[T, G], updates []Update[T], c *metrics.Counter) int {
	type classRegion struct {
		r     ndarray.Region
		delta T
	}
	var regions []classRegion
	vol := 0
	count := ForEachRegion[T, G](ps.Shape(), updates, func(r ndarray.Region, delta T) {
		regions = append(regions, classRegion{r: r.Clone(), delta: delta})
		vol += r.Volume()
	})
	if count == 0 {
		return 0
	}
	shards := make([]metrics.Counter, parallel.Workers())
	parallel.For(len(regions), vol, func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			ps.AddRegion(regions[i].r, regions[i].delta, &shards[w])
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

// ApplyBlocked performs the §5.2 two-phase batch update of a blocked
// prefix-sum structure: phase one combines the values-to-add of all updates
// falling in the same b×...×b block (contracting the index space by b per
// dimension); phase two runs the basic batch-update algorithm on the packed
// prefix-sum array with one update per touched block. It also applies the
// updates to the retained cube and, where the structure has edge arrays, to
// the one entry of each that covers the cell (counted as Aux). It returns the
// number of update-class regions used on the packed array.
func ApplyBlocked[T any, G algebra.Group[T]](bl *blocked.Array[T, G], updates []Update[T], c *metrics.Counter) int {
	var g G
	bs := bl.BlockSizes()
	// Update the cube cells themselves.
	for _, u := range updates {
		c.AddAux(int64(bl.AddToCell(u.Coords, u.Delta)))
		c.AddCells(1)
	}
	// Phase 1: contract updates per block (per-dimension block sizes).
	packed := bl.Packed()
	pstrides := packed.P().Strides()
	combined := make(map[int]T)
	order := make([]int, 0, len(updates))
	for _, u := range updates {
		boff := 0
		for j, x := range u.Coords {
			boff += (x / bs[j]) * pstrides[j]
		}
		if old, ok := combined[boff]; ok {
			combined[boff] = g.Combine(old, u.Delta)
		} else {
			combined[boff] = u.Delta
			order = append(order, boff)
		}
	}
	// Phase 2: one update per touched block against the packed array.
	blockUpdates := make([]Update[T], 0, len(order))
	for _, boff := range order {
		coords := packed.P().Coords(boff, nil)
		blockUpdates = append(blockUpdates, Update[T]{Coords: coords, Delta: combined[boff]})
	}
	return Apply[T, G](packed, blockUpdates, c)
}

// ApplyBlockedInt is ApplyBlocked for the canonical int64 SUM measure.
func ApplyBlockedInt(bl *blocked.IntArray, updates []IntUpdate, c *metrics.Counter) int {
	return ApplyBlocked[int64, algebra.IntSum](bl, updates, c)
}

// ApplyToCube applies the queued updates to a retained original cube; the
// paper's model updates A immediately on each user update and queues the
// value-to-add for the later combined update of P (§5.1).
func ApplyToCube[T any, G algebra.Group[T]](a *ndarray.Array[T], updates []Update[T]) {
	var g G
	for _, u := range updates {
		off := a.Offset(u.Coords...)
		a.Data()[off] = g.Combine(a.Data()[off], u.Delta)
	}
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
