package maxtree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
)

func randomUpdatesFor(rng *rand.Rand, shape []int, k, valRange int) []PointUpdate[int64] {
	ups := make([]PointUpdate[int64], k)
	for i := range ups {
		coords := make([]int, len(shape))
		for j, n := range shape {
			coords[j] = rng.Intn(n)
		}
		ups[i] = PointUpdate[int64]{Coords: coords, Value: int64(rng.Intn(valRange))}
	}
	return ups
}

// Property: after BatchUpdate, every tree invariant holds (node values are
// true region maxima, argmax offsets valid), for random cubes, fanouts,
// batch sizes and value ranges — including duplicate update indices.
func TestBatchUpdateInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCube(rng, 3, 11)
		b := 2 + rng.Intn(3)
		tr := Build(a, b)
		for round := 0; round < 3; round++ {
			k := 1 + rng.Intn(10)
			tr.BatchUpdate(randomUpdatesFor(rng, a.Shape(), k, 1200), nil)
		}
		// Compare against a fresh rebuild: stored values must match
		// exactly; argmax offsets must point at cells holding the value.
		fresh := Build(a, b)
		for li := range tr.levels {
			for i, v := range tr.levels[li].vals.Data() {
				if fresh.levels[li].vals.Data()[i] != v {
					return false
				}
				if a.Data()[tr.levels[li].offs[i]] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: queries after updates agree with naive scans on the updated
// cube.
func TestBatchUpdateQueryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCube(rng, 3, 13)
		tr := Build(a, 3)
		tr.BatchUpdate(randomUpdatesFor(rng, a.Shape(), 1+rng.Intn(15), 2000), nil)
		for q := 0; q < 6; q++ {
			r := randomRegion(rng, a.Shape())
			_, v, ok := tr.MaxIndex(r, nil)
			var wantV int64
			wantOK := false
			ndarray.ForEachOffset(a, r, func(off int) {
				if !wantOK || a.Data()[off] > wantV {
					wantV, wantOK = a.Data()[off], true
				}
			})
			if ok != wantOK || (ok && v != wantV) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Increase-only batches must never rescan a block: tag never reaches −1.
func TestIncreaseOnlyNeverRescans(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomCube(rng, 3, 12)
	tr := Build(a, 3)
	ups := randomUpdatesFor(rng, a.Shape(), 20, 100)
	for i := range ups {
		cur := a.At(ups[i].Coords...)
		ups[i].Value = cur + 1 + int64(rng.Intn(50)) // strictly increasing
	}
	stats := tr.BatchUpdate(ups, nil)
	if stats.Rescans != 0 {
		t.Fatalf("increase-only batch caused %d rescans, want 0", stats.Rescans)
	}
	checkInvariants(t, tr)
}

// Decreasing the unique maximum of a block with no recovery must rescan it.
func TestDecreaseOfMaxRescans(t *testing.T) {
	a := ndarray.FromSlice([]int64{1, 2, 3, 9, 5, 6, 7, 8, 0}, 9)
	tr := Build(a, 3)
	stats := tr.BatchUpdate([]PointUpdate[int64]{{Coords: []int{3}, Value: 0}}, nil)
	if stats.Rescans == 0 {
		t.Fatal("decreasing the block max caused no rescan")
	}
	checkInvariants(t, tr)
	_, v, _ := tr.MaxIndex(a.Bounds(), nil)
	if v != 8 {
		t.Fatalf("max after decrease = %d, want 8", v)
	}
}

// Rule 2(b)/1(c) interplay: a decrease of the maximum followed by an
// increase that reaches at least the old maximum needs no rescan.
func TestIncreaseRecoversLostMax(t *testing.T) {
	a := ndarray.FromSlice([]int64{1, 2, 9, 4, 5, 6, 7, 8, 0}, 9)
	tr := Build(a, 3)
	stats := tr.BatchUpdate([]PointUpdate[int64]{
		{Coords: []int{2}, Value: 0}, // active decrease: tag = −1
		{Coords: []int{0}, Value: 9}, // reaches the lost maximum: tag = 1
	}, nil)
	if stats.Rescans != 0 {
		t.Fatalf("recovered batch caused %d rescans, want 0", stats.Rescans)
	}
	checkInvariants(t, tr)
	off, v, _ := tr.MaxIndex(ndarray.Reg(0, 2), nil)
	if v != 9 || off != 0 {
		t.Fatalf("block max = %d at %d, want 9 at 0", v, off)
	}
}

// An increase-update above the old maximum makes a later decrease of the
// old maximum passive (paper's explanation of rule 2(b)).
func TestIncreaseBeforeDecreaseIgnoresDecrease(t *testing.T) {
	a := ndarray.FromSlice([]int64{1, 2, 9, 4, 5, 6, 7, 8, 0}, 9)
	tr := Build(a, 3)
	stats := tr.BatchUpdate([]PointUpdate[int64]{
		{Coords: []int{1}, Value: 50}, // active increase first
		{Coords: []int{2}, Value: 0},  // decrease of old max: now passive
	}, nil)
	if stats.Rescans != 0 {
		t.Fatalf("batch caused %d rescans, want 0", stats.Rescans)
	}
	checkInvariants(t, tr)
}

// Argmax moves with equal values must propagate so ancestors never point at
// a stale (decreased) cell.
func TestEqualValueArgmaxMovePropagates(t *testing.T) {
	// Two blocks of 3; both maxima equal 9; global argmax in block 0.
	a := ndarray.FromSlice([]int64{9, 1, 1, 9, 1, 1}, 6)
	tr := Build(a, 3)
	// Decrease the cell the root argmax points to.
	rootArg := tr.levels[len(tr.levels)-1].offs[0]
	tr.BatchUpdate([]PointUpdate[int64]{{Coords: []int{rootArg}, Value: 0}}, nil)
	checkInvariants(t, tr)
	off, v, _ := tr.MaxIndex(a.Bounds(), nil)
	if v != 9 || a.Data()[off] != 9 {
		t.Fatalf("after argmax move: max = %d at %d", v, off)
	}
}

// Duplicate indices in one batch: the last value wins.
func TestDuplicateIndicesLastWins(t *testing.T) {
	a := ndarray.FromSlice([]int64{1, 2, 3, 4}, 4)
	tr := Build(a, 2)
	tr.BatchUpdate([]PointUpdate[int64]{
		{Coords: []int{0}, Value: 100},
		{Coords: []int{0}, Value: 7},
	}, nil)
	if a.At(0) != 7 {
		t.Fatalf("cell = %d, want 7", a.At(0))
	}
	checkInvariants(t, tr)
}

func TestEmptyBatch(t *testing.T) {
	a := ndarray.FromSlice([]int64{1, 2, 3, 4}, 4)
	tr := Build(a, 2)
	stats := tr.BatchUpdate(nil, nil)
	if stats.Touched != 0 || stats.Propagated != 0 {
		t.Fatalf("empty batch stats = %+v", stats)
	}
}

// A cube written behind its tree's back is indexed again by a fresh Build:
// the old tree misses the write and the new one holds every invariant.
func TestRebuildMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomCube(rng, 3, 10)
	stale := Build(a, 3)
	a.Data()[0] += 1000
	if top := stale.levels[len(stale.levels)-1].vals.Data()[0]; top == a.Data()[0] {
		t.Fatalf("stale root already holds the written %d", top)
	}
	checkInvariants(t, Build(a, 3))
}

// Propagation stops early when an update does not change a node's maximum.
func TestPassiveUpdateStopsPropagation(t *testing.T) {
	a := ndarray.New[int64](27)
	for i := range a.Data() {
		a.Data()[i] = int64(i)
	}
	tr := Build(a, 3)
	// Increase a non-max cell of the first block without beating the block
	// max (cell 2 holds 2; block max is 2... use block 0's cells 0..2 where
	// max is 2; update cell 0 from 0 to 1: passive).
	stats := tr.BatchUpdate([]PointUpdate[int64]{{Coords: []int{0}, Value: 1}}, nil)
	if stats.Propagated != 0 {
		t.Fatalf("passive update propagated %d points, want 0", stats.Propagated)
	}
	if stats.Touched != 1 {
		t.Fatalf("touched %d blocks, want 1", stats.Touched)
	}
	checkInvariants(t, tr)
}

// repairAsCaller applies a batch the way a caller sharing the cube with other
// structures does: record each distinct cell's old value, write every cell
// (last value wins), and only then hand the (offset, old, new) list to Repair.
func repairAsCaller(tr *Tree[int64], ups []PointUpdate[int64]) UpdateStats {
	a := tr.Cube()
	at := make(map[int]int)
	var changes []CellChange[int64]
	for _, u := range ups {
		off := a.Offset(u.Coords...)
		if i, ok := at[off]; ok {
			changes[i].New = u.Value
			continue
		}
		at[off] = len(changes)
		changes = append(changes, CellChange[int64]{Off: off, Old: a.Data()[off], New: u.Value})
	}
	for _, ch := range changes {
		a.Data()[ch.Off] = ch.New
	}
	return tr.Repair(changes, nil)
}

// sameTree reports whether two trees hold the same cube and the same stored
// value and argmax offset in every node.
func sameTree(x, y *Tree[int64]) bool {
	if !slices.Equal(x.a.Data(), y.a.Data()) || len(x.levels) != len(y.levels) {
		return false
	}
	for li := range x.levels {
		if !slices.Equal(x.levels[li].vals.Data(), y.levels[li].vals.Data()) ||
			!slices.Equal(x.levels[li].offs, y.levels[li].offs) {
			return false
		}
	}
	return true
}

// Repair on a cube the caller has already written must be BatchUpdate in
// everything but who writes: the same nodes, argmax offsets and UpdateStats,
// batch after batch, for max and min trees — including duplicate indices,
// no-op assignments and decreases of a block's current extreme (rescans).
func TestRepairMatchesBatchUpdate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCube(rng, 3, 11)
		b := 2 + rng.Intn(3)
		build := Build[int64]
		if seed%2 == 0 {
			build = BuildMin[int64]
		}
		batch, repair := build(a, b), build(a.Clone(), b)
		for round := 0; round < 4; round++ {
			ups := randomUpdatesFor(rng, a.Shape(), 1+rng.Intn(10), 1200)
			// The root's extreme loses its value, one cell is named twice and
			// one is assigned the value it already holds.
			root := batch.levels[len(batch.levels)-1]
			ups = append(ups,
				PointUpdate[int64]{Coords: a.Coords(root.offs[0], nil), Value: int64(rng.Intn(1200))},
				PointUpdate[int64]{Coords: ups[0].Coords, Value: int64(rng.Intn(1200))},
				PointUpdate[int64]{Coords: a.Coords(round%a.Size(), nil), Value: a.Data()[round%a.Size()]})
			rng.Shuffle(len(ups), func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
			if batch.BatchUpdate(ups, nil) != repairAsCaller(repair, ups) || !sameTree(batch, repair) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// refRepair is Repair as it was first written, grouping each level's update
// points in a map: the reference the sorted grouping must match node for
// node, argmax offsets and UpdateStats included.
func refRepair(t *Tree[int64], changes []CellChange[int64], c *metrics.Counter) UpdateStats {
	var stats UpdateStats
	var list []carried[int64]
	for _, ch := range changes {
		if ch.New != ch.Old {
			list = append(list, carried[int64]{childOff: ch.Off, oldVal: ch.Old, oldArg: ch.Off, newVal: ch.New, newArg: ch.Off})
		}
	}
	for lvlIdx := 1; lvlIdx <= len(t.levels) && len(list) > 0; lvlIdx++ {
		list = refUpdateLevel(t, lvlIdx, list, c, &stats)
	}
	return stats
}

func refUpdateLevel(t *Tree[int64], lvlIdx int, list []carried[int64], c *metrics.Counter, stats *UpdateStats) []carried[int64] {
	lv := &t.levels[lvlIdx-1]
	child := t.a
	if lvlIdx > 1 {
		child = t.levels[lvlIdx-2].vals
	}
	pstrides := lv.vals.Strides()
	groups := make(map[int][]carried[int64])
	var order []int
	for _, u := range list {
		poff := 0
		for j, k := range child.Coords(u.childOff, nil) {
			poff += k / t.b * pstrides[j]
		}
		if _, ok := groups[poff]; !ok {
			order = append(order, poff)
		}
		groups[poff] = append(groups[poff], u)
	}
	var next []carried[int64]
	for _, poff := range order {
		stats.Touched++
		origVal, origArg := lv.vals.Data()[poff], lv.offs[poff]
		candVal, candArg := origVal, origArg
		tag := 0
		c.AddAux(1)
		for _, u := range groups[poff] {
			c.AddSteps(1)
			switch {
			case t.better(u.newVal, candVal):
				candVal, candArg, tag = u.newVal, u.newArg, 1
			case u.newVal == candVal && tag == -1:
				candArg, tag = u.newArg, 1
			case candArg == u.oldArg:
				if u.newVal == candVal && u.newArg != candArg {
					candArg, tag = u.newArg, 1
				} else if t.better(candVal, u.newVal) {
					tag = -1
				}
			}
		}
		if tag == -1 {
			stats.Rescans++
			block := make(ndarray.Region, child.Dims())
			for j, k := range lv.vals.Coords(poff, nil) {
				block[j] = ndarray.Range{Lo: k * t.b, Hi: min(k*t.b+t.b, child.Shape()[j]) - 1}
			}
			first := true
			ndarray.ForEachOffset(child, block, func(off int) {
				stats.RescanSize++
				c.AddSteps(1)
				val, arg := child.Data()[off], off
				if lvlIdx == 1 {
					c.AddCells(1)
				} else {
					c.AddAux(1)
					arg = t.levels[lvlIdx-2].offs[off]
				}
				if first || t.better(val, candVal) {
					candVal, candArg, first = val, arg, false
				}
			})
		}
		if tag != 0 && (candVal != origVal || candArg != origArg) {
			lv.vals.Data()[poff], lv.offs[poff] = candVal, candArg
			next = append(next, carried[int64]{childOff: poff, oldVal: origVal, oldArg: origArg, newVal: candVal, newArg: candArg})
			stats.Propagated++
		}
	}
	return next
}

// tieBatch draws a batch of distinct cells over values 0..3, so ties are
// everywhere, and adds the two cases the tag protocol branches on: the
// root's extreme loses its value (a rescan, unless something recovers it),
// and a sibling in its level-1 block reaches that value (a recovery).
func tieBatch(rng *rand.Rand, tr *Tree[int64]) []CellChange[int64] {
	a := tr.Cube()
	root := tr.levels[len(tr.levels)-1]
	lost := root.offs[0]
	at := map[int]bool{}
	var changes []CellChange[int64]
	set := func(off int, v int64) {
		if !at[off] {
			at[off] = true
			changes = append(changes, CellChange[int64]{Off: off, Old: a.Data()[off], New: v})
		}
	}
	worse := root.vals.Data()[0] - 1
	if tr.IsMin() {
		worse += 2
	}
	set(lost, worse)
	if sib := lost ^ 1; rng.Intn(2) == 0 && sib < a.Size() {
		set(sib, root.vals.Data()[0])
	}
	for range 1 + rng.Intn(24) {
		set(rng.Intn(a.Size()), int64(rng.Intn(4)))
	}
	rng.Shuffle(len(changes), func(i, j int) { changes[i], changes[j] = changes[j], changes[i] })
	return changes
}

// Property: Repair's sorted grouping leaves every tree exactly as the
// map-grouped reference does — values, argmax offsets, UpdateStats and
// counted accesses — batch after batch, for max and min trees over
// tie-heavy cubes of 1 to 3 dimensions, with rescans and recoveries.
func TestRepairMatchesMapGrouping(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCube(rng, 3, 17)
		a.Fill(func([]int) int64 { return int64(rng.Intn(4)) })
		b := 2 + rng.Intn(3)
		build := Build[int64]
		if seed%2 == 0 {
			build = BuildMin[int64]
		}
		got, want := build(a, b), build(a.Clone(), b)
		for round := 0; round < 6; round++ {
			changes := tieBatch(rng, got)
			for _, ch := range changes {
				got.Cube().Data()[ch.Off] = ch.New
				want.Cube().Data()[ch.Off] = ch.New
			}
			var gc, wc metrics.Counter
			if got.Repair(changes, &gc) != refRepair(want, changes, &wc) || gc != wc || !sameTree(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
