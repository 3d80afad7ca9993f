package maxtree

import (
	"cmp"
	"fmt"
	"slices"

	"rangecube/internal/metrics"
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
// distinct-index assumption. Sorting (offset, position) pairs puts each
// cell's updates in one run: the run's first position places the cell's
// change, in the order the batch first names its cells, and its last
// position gives the value. The pairs and the changes live in buffers the
// tree keeps, so a batch allocates nothing once they have grown to it.
func (t *Tree[T]) BatchUpdate(updates []PointUpdate[T], c *metrics.Counter) UpdateStats {
	rb := &t.repair
	keys := rb.keys[:0]
	for i, u := range updates {
		keys = append(keys, groupKey{t.a.Offset(u.Coords...), i})
	}
	slices.SortFunc(keys, func(x, y groupKey) int {
		return cmp.Or(cmp.Compare(x.poff, y.poff), cmp.Compare(x.i, y.i))
	})
	// run[i] is, for the first update of a cell, where its run ends in keys;
	// −1 for every later one.
	run := slices.Grow(rb.head[:0], len(updates))[:len(updates)]
	for k := 0; k < len(keys); {
		e := k
		for e+1 < len(keys) && keys[e+1].poff == keys[k].poff {
			run[keys[e+1].i] = -1
			e++
		}
		run[keys[k].i] = e
		k = e + 1
	}
	data := t.a.Data()
	changes := rb.changes[:0]
	for _, e := range run {
		if e >= 0 {
			off := keys[e].poff
			changes = append(changes, CellChange[T]{Off: off, Old: data[off], New: updates[keys[e].i].Value})
		}
	}
	rb.keys, rb.head, rb.changes = keys, run, changes
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
// tree over the same cells are repaired from the same list. The update
// points of each level live in buffers the tree keeps, so a repair allocates
// nothing once they have grown to the batch.
func (t *Tree[T]) Repair(changes []CellChange[T], c *metrics.Counter) UpdateStats {
	var stats UpdateStats
	rb := &t.repair
	list, next := rb.list[:0], rb.next[:0]
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
		next = t.updateLevel(lvlIdx, list, next[:0], c, &stats)
		list, next = next, list
	}
	rb.list, rb.next = list, next
	return stats
}

// repairBufs is Repair's scratch: the update points of the level being
// repaired and of the next one, and the grouping of the first by parent.
// BatchUpdate groups its batch by cell in keys and head first, and keeps the
// changes it hands Repair.
type repairBufs[T cmp.Ordered] struct {
	list, next []carried[T]
	keys       []groupKey
	head       []int // per update point: where its group starts in keys, or −1 after the first
	bounds     []int // a rescanned block's lo, hi and cursor per dimension
	changes    []CellChange[T]
}

// groupKey places update point i of a level's list in the group of its
// parent node poff.
type groupKey struct{ poff, i int }

// updateLevel runs one phase: the update points on level lvlIdx−1 (the
// children) are grouped by parent node at lvlIdx, each block is processed
// with the tag protocol, and the resulting parent changes are appended to
// next as the next phase's update points. Sorting (parent, position) pairs
// makes each group one run that keeps its points in list order, which is
// the tag protocol's input; the groups are then taken in the order of their
// first point, which is the next level's list order, so ties resolve as the
// list dictates.
func (t *Tree[T]) updateLevel(lvlIdx int, list, next []carried[T], c *metrics.Counter, stats *UpdateStats) []carried[T] {
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

	rb := &t.repair
	keys := rb.keys[:0]
	for i, u := range list {
		off, poff := u.childOff, 0
		for j, s := range childStrides {
			poff += off / s / t.b * pstrides[j]
			off %= s
		}
		keys = append(keys, groupKey{poff, i})
	}
	slices.SortFunc(keys, func(x, y groupKey) int {
		return cmp.Or(cmp.Compare(x.poff, y.poff), cmp.Compare(x.i, y.i))
	})
	head := slices.Grow(rb.head[:0], len(list))[:len(list)]
	for k, key := range keys {
		head[key.i] = -1
		if k == 0 || keys[k-1].poff != key.poff {
			head[key.i] = k
		}
	}
	rb.keys, rb.head = keys, head

	for _, first := range head {
		if first < 0 {
			continue
		}
		poff := keys[first].poff
		stats.Touched++
		origVal := lv.vals.Data()[poff]
		origArg := lv.offs[poff]
		candVal, candArg := origVal, origArg
		tag := 0
		c.AddAux(1)
		for _, key := range keys[first:] {
			if key.poff != poff {
				break
			}
			u := &list[key.i]
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
// level lvlIdx, in storage order, and returns the best (value, cube-offset)
// pair: the first best, as a build keeps it. It walks the block a row of the
// last dimension at a time.
func (t *Tree[T]) rescanBlock(lvlIdx, node int, childShape, childStrides []int, c *metrics.Counter, stats *UpdateStats) (T, int) {
	d := len(childShape)
	bounds := slices.Grow(t.repair.bounds[:0], 3*d)[:3*d]
	t.repair.bounds = bounds
	lo, hi, at := bounds[:d], bounds[d:2*d], bounds[2*d:]
	poff := node
	for j, s := range t.levels[lvlIdx-1].vals.Strides() {
		lo[j] = poff / s * t.b
		hi[j] = min(lo[j]+t.b, childShape[j])
		poff %= s
	}
	copy(at, lo)
	vals, offs := t.a.Data(), []int(nil) // level 0 is the cube: an entry's offset is its own
	if lvlIdx > 1 {
		g := t.levels[lvlIdx-2]
		vals, offs = g.vals.Data(), g.offs
	}
	var bestVal T
	bestArg := -1
	for {
		base := 0
		for j, x := range at {
			base += x * childStrides[j]
		}
		row := vals[base : base+hi[d-1]-lo[d-1]]
		for k, v := range row {
			if bestArg < 0 || t.better(v, bestVal) {
				bestVal, bestArg = v, base+k
			}
		}
		n := int64(len(row))
		stats.RescanSize += len(row)
		c.AddSteps(n)
		if offs == nil {
			c.AddCells(n)
		} else {
			c.AddAux(n)
		}
		j := d - 2
		for ; j >= 0; j-- {
			if at[j]++; at[j] < hi[j] {
				break
			}
			at[j] = lo[j]
		}
		if j < 0 {
			break
		}
	}
	if bestArg < 0 {
		panic(fmt.Sprintf("maxtree: empty block at level %d node %d", lvlIdx, node))
	}
	if offs != nil {
		bestArg = offs[bestArg]
	}
	return bestVal, bestArg
}
