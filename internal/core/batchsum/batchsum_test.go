package batchsum

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rangecube/internal/algebra"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/metrics"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
)

func randomCube(rng *rand.Rand, maxDims, maxExtent int) *ndarray.Array[int64] {
	d := 1 + rng.Intn(maxDims)
	shape := make([]int, d)
	for i := range shape {
		shape[i] = 2 + rng.Intn(maxExtent-1)
	}
	a := ndarray.New[int64](shape...)
	a.Fill(func([]int) int64 { return int64(rng.Intn(201) - 100) })
	return a
}

func randomUpdates(rng *rand.Rand, shape []int, k int) []IntUpdate {
	ups := make([]IntUpdate, k)
	for i := range ups {
		coords := make([]int, len(shape))
		for j, n := range shape {
			coords[j] = rng.Intn(n)
		}
		ups[i] = IntUpdate{Coords: coords, Delta: int64(rng.Intn(41) - 20)}
	}
	return ups
}

func TestMaxRegionsClosedForm(t *testing.T) {
	// NR(k,1)=k, NR(k,2)=k(k+1)/2, NR(k,3)=k(k+1)(k+2)/6 (Theorem 2 proof).
	for k := 1; k <= 10; k++ {
		if got := MaxRegions(k, 1); got != int64(k) {
			t.Fatalf("MaxRegions(%d,1) = %d", k, got)
		}
		if got := MaxRegions(k, 2); got != int64(k*(k+1)/2) {
			t.Fatalf("MaxRegions(%d,2) = %d", k, got)
		}
		if got := MaxRegions(k, 3); got != int64(k*(k+1)*(k+2)/6) {
			t.Fatalf("MaxRegions(%d,3) = %d", k, got)
		}
	}
}

func TestOneDimensionalPartition(t *testing.T) {
	// Three updates on a length-10 array: regions are
	// [u1,u2-1]=V1, [u2,u3-1]=V1+V2, [u3,9]=V1+V2+V3 (§5.1).
	shape := []int{10}
	ups := []IntUpdate{
		{Coords: []int{7}, Delta: 30},
		{Coords: []int{2}, Delta: 10},
		{Coords: []int{4}, Delta: 100},
	}
	type rd struct {
		r ndarray.Region
		v int64
	}
	var got []rd
	n := ForEachRegion[int64, algebra.IntSum](shape, ups, func(r ndarray.Region, delta int64) {
		got = append(got, rd{r.Clone(), delta})
	})
	want := []rd{
		{ndarray.Reg(2, 3), 10},
		{ndarray.Reg(4, 6), 110},
		{ndarray.Reg(7, 9), 140},
	}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("got %d regions, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].r.Equal(want[i].r) || got[i].v != want[i].v {
			t.Fatalf("region %d = %v/%d, want %v/%d", i, got[i].r, got[i].v, want[i].r, want[i].v)
		}
	}
}

func TestDuplicateIndicesCombine(t *testing.T) {
	shape := []int{6}
	ups := []IntUpdate{
		{Coords: []int{3}, Delta: 5},
		{Coords: []int{3}, Delta: 7},
	}
	var regions int
	ForEachRegion[int64, algebra.IntSum](shape, ups, func(r ndarray.Region, delta int64) {
		regions++
		if !r.Equal(ndarray.Reg(3, 5)) || delta != 12 {
			t.Fatalf("got %v/%d, want (3:5)/12", r, delta)
		}
	})
	if regions != 1 {
		t.Fatalf("duplicate updates produced %d regions, want 1", regions)
	}
}

// Figure 7(c): two update points in 2-d partition the affected entries into
// 3 update-class regions; Figure 8: three points into up to 6.
func TestFigure7And8RegionCounts(t *testing.T) {
	shape := []int{8, 8}
	two := []IntUpdate{
		{Coords: []int{2, 5}, Delta: 1},
		{Coords: []int{5, 2}, Delta: 2},
	}
	n := ForEachRegion[int64, algebra.IntSum](shape, two, func(ndarray.Region, int64) {})
	if n != 3 {
		t.Fatalf("two anti-chain updates produced %d regions, want 3 (Figure 7c)", n)
	}
	three := []IntUpdate{
		{Coords: []int{1, 6}, Delta: 1},
		{Coords: []int{3, 3}, Delta: 2},
		{Coords: []int{6, 1}, Delta: 3},
	}
	n = ForEachRegion[int64, algebra.IntSum](shape, three, func(ndarray.Region, int64) {})
	if n != 6 {
		t.Fatalf("three anti-chain updates produced %d regions, want 6 (Figure 8)", n)
	}
	if int64(n) != MaxRegions(3, 2) {
		t.Fatalf("anti-chain should achieve the Theorem 2 bound %d", MaxRegions(3, 2))
	}
}

// Property: the visited regions are pairwise disjoint, cover exactly the
// affected entries, and each cell's delta equals the combined deltas of the
// updates that dominate it (Properties 1 and 2 of §5.1).
func TestPartitionCorrectnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		shape := make([]int, d)
		for i := range shape {
			shape[i] = 2 + rng.Intn(6)
		}
		k := 1 + rng.Intn(5)
		ups := randomUpdates(rng, shape, k)
		// Accumulate per-cell deltas from the regions.
		acc := ndarray.New[int64](shape...)
		overlap := ndarray.New[int64](shape...)
		n := ForEachRegion[int64, algebra.IntSum](shape, ups, func(r ndarray.Region, delta int64) {
			ndarray.ForEachOffset(acc, r, func(off int) {
				acc.Data()[off] += delta
				overlap.Data()[off]++
			})
		})
		if int64(n) > MaxRegions(k, d) {
			return false
		}
		// Expected per-cell delta: sum of deltas of dominating updates.
		ok := true
		acc.Bounds().ForEach(func(c []int) {
			var want int64
			affected := false
			for _, u := range ups {
				dom := true
				for j := range c {
					if c[j] < u.Coords[j] {
						dom = false
						break
					}
				}
				if dom {
					want += u.Delta
					affected = true
				}
			}
			off := acc.Offset(c...)
			if acc.Data()[off] != want {
				ok = false
			}
			// Each affected cell must be covered by exactly one region,
			// each unaffected cell by none.
			if affected && overlap.Data()[off] != 1 {
				ok = false
			}
			if !affected && overlap.Data()[off] != 0 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// applyToCube combines each update's delta into its cell of a, the cube a
// test keeps beside P.
func applyToCube[T any, G algebra.Group[T]](a *ndarray.Array[T], updates []Update[T]) {
	var g G
	for _, u := range updates {
		off := a.Offset(u.Coords...)
		a.Data()[off] = g.Combine(a.Data()[off], u.Delta)
	}
}

// Property: Apply leaves P identical to a fresh build over the updated cube.
func TestApplyMatchesRebuildProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCube(rng, 4, 7)
		ps := prefixsum.BuildInt(a)
		k := 1 + rng.Intn(8)
		ups := randomUpdates(rng, a.Shape(), k)
		ApplyInt(ps, ups, nil)
		applyToCube[int64, algebra.IntSum](a, ups)
		fresh := prefixsum.BuildInt(a)
		for off, want := range fresh.P().Data() {
			if ps.P().Data()[off] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The batch update touches each affected entry exactly once; k sequential
// point updates touch the same entries up to k times. The batch cost must
// never exceed the sequential cost.
func TestBatchCheaperThanSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomCube(rng, 3, 10)
	ups := randomUpdates(rng, a.Shape(), 6)

	batch := prefixsum.BuildInt(a.Clone())
	var batchCost metrics.Counter
	ApplyInt(batch, ups, &batchCost)

	seq := prefixsum.BuildInt(a.Clone())
	var seqCost metrics.Counter
	for _, u := range ups {
		seq.ApplyPoint(u.Coords, u.Delta, &seqCost)
	}
	if batchCost.Aux > seqCost.Aux {
		t.Fatalf("batch cost %d > sequential cost %d", batchCost.Aux, seqCost.Aux)
	}
	for off, want := range seq.P().Data() {
		if batch.P().Data()[off] != want {
			t.Fatalf("batch and sequential update disagree at %d", off)
		}
	}
}

// Property: ApplyBlocked keeps blocked query answers consistent with naive
// scans over the updated cube (§5.2).
func TestApplyBlockedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCube(rng, 3, 9)
		b := 1 + rng.Intn(5)
		bl := blocked.BuildInt(a, b)
		k := 1 + rng.Intn(8)
		ups := randomUpdates(rng, a.Shape(), k)
		ApplyBlockedInt(bl, ups, nil)
		for q := 0; q < 6; q++ {
			r := make(ndarray.Region, a.Dims())
			for i, n := range a.Shape() {
				lo := rng.Intn(n)
				r[i] = ndarray.Range{Lo: lo, Hi: lo + rng.Intn(n-lo)}
			}
			if bl.Sum(r, nil) != naive.SumInt64(a, r, nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBlockedContractsPerBlock: four updates in one block queue one
// combined value-to-add for the 2×2 packed array, whose queue folds at
// ⌈√4⌉ = 2 blocks, so nothing is folded and the sums read the queue; a fifth
// update, in another block, fills the queue and folds both blocks.
func TestApplyBlockedContractsPerBlock(t *testing.T) {
	a := ndarray.New[int64](8, 8)
	bl := blocked.BuildInt(a, 4)
	ups := []IntUpdate{
		{Coords: []int{0, 0}, Delta: 1},
		{Coords: []int{1, 1}, Delta: 2},
		{Coords: []int{2, 3}, Delta: 3},
		{Coords: []int{3, 2}, Delta: 4},
	}
	if folded := ApplyBlockedInt(bl, ups, nil); folded != 0 {
		t.Fatalf("same-block updates folded %d blocks, want 0", folded)
	}
	if got := bl.Sum(ndarray.Reg(0, 7, 0, 7), nil); got != 10 {
		t.Fatalf("total after update = %d, want 10", got)
	}
	if got := bl.Packed().Sum(ndarray.Reg(0, 1, 0, 1), nil); got != 0 {
		t.Fatalf("packed holds %d before the fold, want 0", got)
	}
	if folded := ApplyBlockedInt(bl, []IntUpdate{{Coords: []int{7, 7}, Delta: 5}}, nil); folded != 2 {
		t.Fatalf("an update in a second block folded %d blocks, want 2", folded)
	}
	if got := bl.Packed().Sum(ndarray.Reg(0, 1, 0, 1), nil); got != 15 {
		t.Fatalf("packed holds %d after the fold, want 15", got)
	}
}

func TestForEachRegionValidation(t *testing.T) {
	shape := []int{4, 4}
	for _, ups := range [][]IntUpdate{
		{{Coords: []int{1}, Delta: 1}},
		{{Coords: []int{4, 0}, Delta: 1}},
		{{Coords: []int{0, -1}, Delta: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ForEachRegion(%v) did not panic", ups)
				}
			}()
			ForEachRegion[int64, algebra.IntSum](shape, ups, func(ndarray.Region, int64) {})
		}()
	}
	if n := ForEachRegion[int64, algebra.IntSum](shape, nil, func(ndarray.Region, int64) {}); n != 0 {
		t.Fatalf("empty batch produced %d regions", n)
	}
}

// Regression: ApplyBlocked must contract updates with the per-dimension
// block sizes, not dimension 0's size for every axis.
func TestApplyBlockedPerDimensionBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := ndarray.New[int64](12, 9, 4)
	a.Fill(func([]int) int64 { return int64(rng.Intn(100)) })
	bl := blocked.BuildIntDims(a, []int{3, 2, 1})
	ups := randomUpdates(rng, a.Shape(), 10)
	ApplyBlockedInt(bl, ups, nil)
	for q := 0; q < 40; q++ {
		r := make(ndarray.Region, a.Dims())
		for i, n := range a.Shape() {
			lo := rng.Intn(n)
			r[i] = ndarray.Range{Lo: lo, Hi: lo + rng.Intn(n-lo)}
		}
		if got, want := bl.Sum(r, nil), naive.SumInt64(a, r, nil); got != want {
			t.Fatalf("Sum(%v) = %d, want %d", r, got, want)
		}
	}
}

// TestApplyAllocs pins what the §5 region apply costs the allocator per
// batch: it was 585 objects for 16 deltas and 38,704 for 256 here, while
// every region at every level carried a fresh copy of its updates, sorted
// through a reflective swapper, and was cloned, walked through a line iterator
// that copied its shape and written through a fresh closure. On a 128² P every
// region is under parallel.Grain, so nothing forks and the count does not
// depend on the worker budget.
func TestApplyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, k := range []int{16, 256} {
		ps := prefixsum.BuildInt(ndarray.New[int64](128, 128))
		ups := randomUpdates(rng, ps.Shape(), k)
		if got := testing.AllocsPerRun(5, func() { ApplyInt(ps, ups, nil) }); got > 64 {
			t.Errorf("k=%d: Apply allocates %v objects, want at most 64", k, got)
		}
	}
}
