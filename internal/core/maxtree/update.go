package maxtree

import (
	"fmt"

	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
)

// PointUpdate assigns a new absolute value to one cube cell, the paper's
// ⟨index, value⟩ update form (§7).
type PointUpdate[T any] struct {
	Coords []int
	Value  T
}

// UpdateStats reports what the §7 batch-update protocol did: how many tree
// nodes were touched, how many blocks had to be fully rescanned (tag = −1
// survived to the end of the list), and how many update points were
// propagated to higher levels. Benches use it to show that increase-heavy
// batches propagate cheaply.
type UpdateStats struct {
	Touched    int // parent nodes whose block received at least one update point
	Rescans    int // blocks rescanned because the known maximum was lost
	RescanSize int // total entries read by those rescans
	Propagated int // update points emitted to higher levels
}

// carried is an internal update point flowing between levels: the child
// entry at childOff changed from (oldVal at oldArg) to (newVal at newArg),
// where the arg offsets index the original cube.
type carried[T any] struct {
	childOff int
	oldVal   T
	oldArg   int
	newVal   T
	newArg   int
}

// CellChange is one cube cell whose value has already been rewritten in
// place: its flat offset and its value before and after the write.
type CellChange[T any] struct {
	Off      int
	Old, New T
}

// BatchUpdate applies a batch of point updates to the cube and repairs the
// precomputed tree with Repair. Duplicate indices in the batch are combined
// first (last value wins), the "minor modification" the paper says lifts its
// distinct-index assumption.
func (t *Tree[T]) BatchUpdate(updates []PointUpdate[T], c *metrics.Counter) UpdateStats {
	// Phase 0 input: dedup by cell, record old values, write the cube.
	data := t.a.Data()
	seen := make(map[int]int, len(updates)) // cube offset -> index in changes
	changes := make([]CellChange[T], 0, len(updates))
	for _, u := range updates {
		off := t.a.Offset(u.Coords...)
		if i, ok := seen[off]; ok {
			changes[i].New = u.Value
			continue
		}
		seen[off] = len(changes)
		changes = append(changes, CellChange[T]{Off: off, Old: data[off], New: u.Value})
	}
	for _, ch := range changes {
		data[ch.Off] = ch.New
		c.AddCells(1)
	}
	return t.Repair(changes, c)
}

// Repair brings the tree back in line with a cube the caller has already
// written, level by level using the paper's tag protocol (§7): tag = 0 means
// the parent needs no update, tag = 1 means new_max_index holds the parent's
// new maximum, and tag = −1 means the known maximum was destroyed by a
// decrease-update and the block must be searched in full — but only if no
// later increase-update recovers it first.
//
// Every cell of the batch must be written before the call (a level-1 rescan
// reads the cube), offsets must be distinct, and Old must be the value the
// tree was last consistent with. changes is only read, so a max and a min
// tree over the same cells are repaired from the same list.
func (t *Tree[T]) Repair(changes []CellChange[T], c *metrics.Counter) UpdateStats {
	var stats UpdateStats
	list := make([]carried[T], 0, len(changes))
	for _, ch := range changes {
		if ch.New != ch.Old { // drop no-ops
			list = append(list, carried[T]{
				childOff: ch.Off,
				oldVal:   ch.Old, oldArg: ch.Off,
				newVal: ch.New, newArg: ch.Off,
			})
		}
	}
	for lvlIdx := 1; lvlIdx <= len(t.levels) && len(list) > 0; lvlIdx++ {
		list = t.updateLevel(lvlIdx, list, c, &stats)
	}
	return stats
}

// updateLevel runs one phase: the update points on level lvlIdx−1 (the
// children) are grouped by parent node at lvlIdx, each block is processed
// with the tag protocol, and the resulting parent changes are returned as
// the next phase's update points.
func (t *Tree[T]) updateLevel(lvlIdx int, list []carried[T], c *metrics.Counter, stats *UpdateStats) []carried[T] {
	lv := &t.levels[lvlIdx-1]
	var childShape []int
	var childStrides []int
	if lvlIdx == 1 {
		childShape, childStrides = t.a.Shape(), t.a.Strides()
	} else {
		g := t.levels[lvlIdx-2].vals
		childShape, childStrides = g.Shape(), g.Strides()
	}
	pstrides := lv.vals.Strides()

	// Group update points by parent node, preserving list order per group.
	groups := make(map[int][]carried[T])
	var order []int
	coords := make([]int, len(childShape))
	for _, u := range list {
		off := u.childOff
		for j, s := range childStrides {
			coords[j] = off / s
			off %= s
		}
		poff := 0
		for j := range coords {
			poff += (coords[j] / t.b) * pstrides[j]
		}
		if _, ok := groups[poff]; !ok {
			order = append(order, poff)
		}
		groups[poff] = append(groups[poff], u)
	}

	var next []carried[T]
	for _, poff := range order {
		stats.Touched++
		origVal := lv.vals.Data()[poff]
		origArg := lv.offs[poff]
		candVal, candArg := origVal, origArg
		tag := 0
		c.AddAux(1)
		for _, u := range groups[poff] {
			c.AddSteps(1)
			switch {
			case t.better(u.newVal, candVal):
				// Rule 1(b): an active improvement beats the candidate.
				candVal, candArg = u.newVal, u.newArg
				tag = 1
			case u.newVal == candVal && tag == -1:
				// Rule 1(c): an update reaching exactly the lost maximum
				// value recovers it.
				candArg = u.newArg
				tag = 1
			case candArg == u.oldArg:
				// The candidate's own source changed without improving.
				if u.newVal == candVal && u.newArg != candArg {
					// Same value, new location (an argmax move propagated
					// from below).
					candArg = u.newArg
					tag = 1
				} else if t.better(candVal, u.newVal) {
					// Rule 2(b): an active decrease destroys the known
					// maximum; only a full search (or a later recovery)
					// can re-establish it.
					tag = -1
				}
			default:
				// Passive update: no effect on this block's maximum.
			}
		}
		if tag == -1 {
			// Search the whole sibling set S for the new maximum (§7).
			stats.Rescans++
			candVal, candArg = t.rescanBlock(lvlIdx, poff, childShape, childStrides, c, stats)
		}
		if tag != 0 && (candVal != origVal || candArg != origArg) {
			lv.vals.Data()[poff] = candVal
			lv.offs[poff] = candArg
			next = append(next, carried[T]{
				childOff: poff,
				oldVal:   origVal, oldArg: origArg,
				newVal: candVal, newArg: candArg,
			})
			stats.Propagated++
		}
	}
	return next
}

// rescanBlock scans every child entry covered by the parent node at poff on
// level lvlIdx and returns the best (value, cube-offset) pair.
func (t *Tree[T]) rescanBlock(lvlIdx, poff int, childShape, childStrides []int, c *metrics.Counter, stats *UpdateStats) (T, int) {
	lv := &t.levels[lvlIdx-1]
	pcoords := lv.vals.Coords(poff, nil)
	block := make(ndarray.Region, len(pcoords))
	for j, k := range pcoords {
		lo := k * t.b
		hi := lo + t.b - 1
		if hi >= childShape[j] {
			hi = childShape[j] - 1
		}
		block[j] = ndarray.Range{Lo: lo, Hi: hi}
	}
	var bestVal T
	bestArg := -1
	first := true
	visit := func(val T, arg int) {
		stats.RescanSize++
		c.AddSteps(1)
		if first || t.better(val, bestVal) {
			bestVal, bestArg, first = val, arg, false
		}
	}
	if lvlIdx == 1 {
		data := t.a.Data()
		ndarray.ForEachOffset(t.a, block, func(off int) {
			c.AddCells(1)
			visit(data[off], off)
		})
	} else {
		g := t.levels[lvlIdx-2]
		ndarray.ForEachOffset(g.vals, block, func(off int) {
			c.AddAux(1)
			visit(g.vals.Data()[off], g.offs[off])
		})
	}
	if first {
		panic(fmt.Sprintf("maxtree: empty block at level %d node %d", lvlIdx, poff))
	}
	return bestVal, bestArg
}

// Rebuild recomputes every tree level from the cube. It is the O(N)
// fallback baseline against which BatchUpdate is benchmarked and
// property-tested.
func (t *Tree[T]) Rebuild() {
	fresh := build(t.a, t.b, t.min)
	t.levels = fresh.levels
}
