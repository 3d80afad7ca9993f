package shard

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
	"rangecube/internal/wal"
	"rangecube/internal/workload"
)

// seedFlag makes the randomized partition and router tests reproducible:
// the fixed default pins the historical workload, and failures log the
// effective seed (the PR-3 convention).
var seedFlag = flag.Int64("seed", 17, "base seed for randomized shard tests")

// decompCase is one property-test input: a slab map (possibly uneven) and
// a query region over its cube shape.
type decompCase struct {
	shape []int
	dim   int
	slabs []ndarray.Range
	r     ndarray.Region
}

func (c decompCase) String() string {
	return fmt.Sprintf("shape=%v dim=%d slabs=%v region=%v", c.shape, c.dim, c.slabs, c.r)
}

func (c decompCase) mapOf() (Map, error) { return NewMapSlabs(c.shape, c.dim, c.slabs) }

// NewMapSlabs builds a map from explicit slab boundaries (the property
// tests use it to exercise uneven partitions). The slabs must be ascending,
// non-empty and exactly tile [0, shape[dim]-1].
func NewMapSlabs(shape []int, dim int, slabs []ndarray.Range) (Map, error) {
	m, err := NewMap(shape, dim, 1)
	if err != nil {
		return Map{}, err
	}
	if len(slabs) == 0 {
		return Map{}, fmt.Errorf("shard: no slabs")
	}
	next := 0
	for i, s := range slabs {
		if s.Lo != next || s.Hi < s.Lo {
			return Map{}, fmt.Errorf("shard: slab %d is %v, want Lo=%d and Hi>=Lo", i, s, next)
		}
		next = s.Hi + 1
	}
	if next != shape[dim] {
		return Map{}, fmt.Errorf("shard: slabs end at %d, dimension extent is %d", next, shape[dim])
	}
	m.slabs = append([]ndarray.Range(nil), slabs...)
	return m, nil
}

// Cell returns one logical-cube cell's current value on a router of local
// engines.
func (rt *Router) Cell(coords []int) int64 {
	i := rt.m.Owner(coords[rt.m.Dim()])
	local := slices.Clone(coords)
	local[rt.m.Dim()] -= rt.m.Slab(i).Lo
	return rt.shards[i].(*localEngine).cells.At(local...)
}

// SubQuery is one shard's piece of a region, as cut visits it.
type SubQuery struct {
	Shard int
	Local ndarray.Region
}

// Decompose collects cut's pieces of r.
func (m Map) Decompose(r ndarray.Region) []SubQuery {
	var subs []SubQuery
	m.cut(r, func(i int, local ndarray.Region) { subs = append(subs, SubQuery{Shard: i, Local: local}) })
	return subs
}

// decomposeViolation checks the partition property on one case: the
// sub-queries, translated back to global coordinates, must cover every
// cell of the region exactly once and no cell outside it, each within its
// shard's local bounds, with volumes summing to the region's volume and
// Owner agreeing on every split coordinate. It returns "" when the
// property holds, else a description of the first violation.
func decomposeViolation(m Map, r ndarray.Region) string {
	subs := m.Decompose(r)
	if r.Empty() || len(r) != len(m.Shape()) {
		if len(subs) != 0 {
			return fmt.Sprintf("empty/mismatched region decomposed into %d subs", len(subs))
		}
		return ""
	}
	logical := ndarray.New[int64](m.Shape()...)
	count := make([]int, len(logical.Data()))
	volSum := 0
	for _, sub := range subs {
		if sub.Shard < 0 || sub.Shard >= m.Shards() {
			return fmt.Sprintf("sub-query for nonexistent shard %d", sub.Shard)
		}
		ls := m.LocalShape(sub.Shard)
		if len(sub.Local) != len(ls) {
			return fmt.Sprintf("shard %d: local region rank %d, shard rank %d", sub.Shard, len(sub.Local), len(ls))
		}
		for j, rng := range sub.Local {
			if rng.Lo < 0 || rng.Hi < rng.Lo || rng.Hi >= ls[j] {
				return fmt.Sprintf("shard %d: local range %v outside local shape %v in dim %d", sub.Shard, rng, ls, j)
			}
		}
		volSum += sub.Local.Volume()
		lo := make([]int, len(sub.Local))
		hi := make([]int, len(sub.Local))
		for j, rng := range sub.Local {
			lo[j], hi[j] = rng.Lo, rng.Hi
		}
		glo := m.Global(sub.Shard, lo, nil)
		ghi := m.Global(sub.Shard, hi, nil)
		greg := make(ndarray.Region, len(glo))
		for j := range glo {
			greg[j] = ndarray.Range{Lo: glo[j], Hi: ghi[j]}
		}
		for x := greg[m.Dim()].Lo; x <= greg[m.Dim()].Hi; x++ {
			if own := m.Owner(x); own != sub.Shard {
				return fmt.Sprintf("split coordinate %d routed to shard %d but decomposed to shard %d", x, own, sub.Shard)
			}
		}
		ndarray.ForEachOffset(logical, greg, func(off int) { count[off]++ })
	}
	if volSum != r.Volume() {
		return fmt.Sprintf("sub-query volumes sum to %d, region volume is %d", volSum, r.Volume())
	}
	inRegion := make([]bool, len(count))
	ndarray.ForEachOffset(logical, r, func(off int) { inRegion[off] = true })
	for off, n := range count {
		coords := logical.Coords(off, nil)
		if inRegion[off] && n != 1 {
			return fmt.Sprintf("cell %v inside the region covered %d times (gap or overlap)", coords, n)
		}
		if !inRegion[off] && n != 0 {
			return fmt.Sprintf("cell %v outside the region covered %d times", coords, n)
		}
	}
	return ""
}

// randomSlabs cuts extent into 1..maxSlabs uneven contiguous slabs.
func randomSlabs(rng *rand.Rand, extent, maxSlabs int) []ndarray.Range {
	n := 1 + rng.Intn(maxSlabs)
	if n > extent {
		n = extent
	}
	// Choose n-1 distinct interior boundaries.
	cuts := rng.Perm(extent - 1)[:n-1]
	marks := make([]bool, extent)
	for _, c := range cuts {
		marks[c+1] = true
	}
	var slabs []ndarray.Range
	lo := 0
	for x := 1; x <= extent; x++ {
		if x == extent || marks[x] {
			slabs = append(slabs, ndarray.Range{Lo: lo, Hi: x - 1})
			lo = x
		}
	}
	return slabs
}

// shrinkDecomp greedily minimizes a failing case: narrow the region one
// index at a time, merge adjacent slabs, and trim unused extent off
// non-split dimensions, keeping each step only while the violation
// persists. The result is the smallest multi-shard counterexample this
// move set can reach — small enough to eyeball.
func shrinkDecomp(c decompCase) decompCase {
	fails := func(c decompCase) bool {
		m, err := c.mapOf()
		if err != nil {
			return false
		}
		return decomposeViolation(m, c.r) != ""
	}
	for {
		shrunk := false
		// Narrow the region from either end in every dimension.
		for j := 0; j < len(c.r) && !shrunk; j++ {
			for _, cand := range []ndarray.Range{
				{Lo: c.r[j].Lo + 1, Hi: c.r[j].Hi},
				{Lo: c.r[j].Lo, Hi: c.r[j].Hi - 1},
			} {
				next := c
				next.r = c.r.Clone()
				next.r[j] = cand
				if fails(next) {
					c, shrunk = next, true
					break
				}
			}
		}
		// Merge adjacent slabs (fewer shards).
		for i := 0; i+1 < len(c.slabs) && !shrunk; i++ {
			merged := append(append([]ndarray.Range(nil), c.slabs[:i]...),
				ndarray.Range{Lo: c.slabs[i].Lo, Hi: c.slabs[i+1].Hi})
			merged = append(merged, c.slabs[i+2:]...)
			next := c
			next.slabs = merged
			if fails(next) {
				c, shrunk = next, true
			}
		}
		// Trim the top of non-split dimensions the region does not reach.
		for j := 0; j < len(c.shape) && !shrunk; j++ {
			if j == c.dim || c.shape[j] <= 1 || c.r[j].Hi >= c.shape[j]-1 {
				continue
			}
			next := c
			next.shape = append([]int(nil), c.shape...)
			next.shape[j]--
			if fails(next) {
				c, shrunk = next, true
			}
		}
		if !shrunk {
			return c
		}
	}
}

// TestDecomposePartitionProperty is the router-decomposition property
// test: over random shapes, uneven slab maps and query regions, the
// sub-ranges exactly partition the query region — no overlap, no gap,
// volumes summing to the region volume. A failure is greedily shrunk to a
// minimal multi-shard counterexample before reporting.
func TestDecomposePartitionProperty(t *testing.T) {
	g := workload.SeededGen(t, *seedFlag, 0)
	rng := rand.New(rand.NewSource(*seedFlag + 0xdec0))
	for i := 0; i < 400; i++ {
		nd := 1 + rng.Intn(4)
		shape := make([]int, nd)
		for j := range shape {
			shape[j] = 1 + rng.Intn(9)
		}
		c := decompCase{shape: shape, dim: rng.Intn(nd)}
		c.slabs = randomSlabs(rng, shape[c.dim], 5)
		c.r = g.UniformRegion(shape)
		m, err := c.mapOf()
		if err != nil {
			t.Fatalf("case %d (%v): invalid map: %v", i, c, err)
		}
		if v := decomposeViolation(m, c.r); v != "" {
			min := shrinkDecomp(c)
			mm, _ := min.mapOf()
			t.Fatalf("case %d violates the partition property: %s\n  original: %v\n  minimal counterexample: %v\n  minimal violation: %s",
				i, v, c, min, decomposeViolation(mm, min.r))
		}
	}
}

// TestDecomposeDegenerate pins the degenerate contracts: empty regions and
// rank mismatches decompose to nothing.
func TestDecomposeDegenerate(t *testing.T) {
	m, err := NewMap([]int{6, 4}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if subs := m.Decompose(ndarray.Region{{Lo: 3, Hi: 2}, {Lo: 0, Hi: 3}}); subs != nil {
		t.Fatalf("empty region decomposed into %v", subs)
	}
	if subs := m.Decompose(ndarray.Region{{Lo: 0, Hi: 5}}); subs != nil {
		t.Fatalf("rank-mismatched region decomposed into %v", subs)
	}
}

// TestOwnerMatchesSlabs proves the arithmetic-guess-plus-walk Owner agrees
// with a linear scan over every coordinate of random uneven maps.
func TestOwnerMatchesSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag + 0x05e7))
	for i := 0; i < 200; i++ {
		extent := 1 + rng.Intn(50)
		slabs := randomSlabs(rng, extent, 8)
		m, err := NewMapSlabs([]int{extent}, 0, slabs)
		if err != nil {
			t.Fatalf("slabs %v: %v", slabs, err)
		}
		for x := 0; x < extent; x++ {
			want := -1
			for s, slab := range slabs {
				if x >= slab.Lo && x <= slab.Hi {
					want = s
					break
				}
			}
			if got := m.Owner(x); got != want {
				t.Fatalf("slabs %v: Owner(%d) = %d, want %d", slabs, x, got, want)
			}
		}
	}
}

func naiveSum(a *ndarray.Array[int64], r ndarray.Region) int64 {
	var s int64
	ndarray.ForEachOffset(a, r, func(off int) { s += a.Data()[off] })
	return s
}

func naiveExtreme(a *ndarray.Array[int64], r ndarray.Region, min bool) (int64, bool) {
	var best int64
	ok := false
	ndarray.ForEachOffset(a, r, func(off int) {
		v := a.Data()[off]
		if !ok || (min && v < best) || (!min && v > best) {
			best, ok = v, true
		}
	})
	return best, ok
}

// TestRouterMatchesNaive holds the full scatter–gather query surface to a
// naive mirror across interleaved scatter updates: sums and extremes must
// be exact, §11 bounds must contain the true sum, and Cell must read the
// scattered state back.
func TestRouterMatchesNaive(t *testing.T) {
	g := workload.SeededGen(t, *seedFlag, 1)
	rng := rand.New(rand.NewSource(*seedFlag + 0x4007))
	ctx := context.Background()
	for _, sumEngine := range []string{"prefixsum", "blocked"} {
		for trial := 0; trial < 6; trial++ {
			nd := 1 + rng.Intn(3)
			shape := make([]int, nd)
			for j := range shape {
				shape[j] = 2 + rng.Intn(7)
			}
			dim := rng.Intn(nd)
			m, err := NewMapSlabs(shape, dim, randomSlabs(rng, shape[dim], 4))
			if err != nil {
				t.Fatal(err)
			}
			mirror := g.UniformCube(shape, 100)
			rt, err := NewRouter(mirror.Clone(), m, 1+rng.Intn(3), 2+rng.Intn(2), sumEngine)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 20; step++ {
				r := g.UniformRegion(shape)
				got, err := rt.Sum(ctx, r, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := naiveSum(mirror, r); got != want {
					t.Fatalf("%s shards=%v step %d: Sum(%v) = %d, want %d", sumEngine, m.slabs, step, r, got, want)
				}
				full, err := sumFull(ctx, rt, r, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := naiveSum(mirror, r); full.Value != want || want < full.Lo || want > full.Hi || full.Partial() {
					t.Fatalf("%s shards=%v step %d: sumFull(%v) = %+v, want value %d inside the bounds", sumEngine, m.slabs, step, r, full, want)
				}
				for _, min := range []bool{false, true} {
					coords, v, ok, err := rt.Extreme(ctx, r, min, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, wantOK := naiveExtreme(mirror, r, min)
					if ok != wantOK || (ok && v != want) {
						t.Fatalf("%s shards=%v step %d min=%v: Extreme(%v) = (%d,%v), want (%d,%v)", sumEngine, m.slabs, step, min, r, v, ok, want, wantOK)
					}
					if ok {
						for j, x := range coords {
							if x < r[j].Lo || x > r[j].Hi {
								t.Fatalf("extreme coords %v outside region %v", coords, r)
							}
						}
						if mirror.At(coords...) != v {
							t.Fatalf("extreme reports %d at %v, cube holds %d", v, coords, mirror.At(coords...))
						}
					}
				}
				// Deltas are floored so no cell goes negative: the §11
				// bounds identity only holds for non-negative measures.
				ups := g.Updates(shape, 1+rng.Intn(5), 20)
				cells := make([]wal.Update, len(ups))
				for i, u := range ups {
					if cur := mirror.At(u.Coords...); cur+u.Delta < 0 {
						u.Delta = -cur
					}
					cells[i] = wal.Update{Coords: u.Coords, Delta: u.Delta}
					mirror.Set(mirror.At(u.Coords...)+u.Delta, u.Coords...)
				}
				rt.Apply(context.Background(), wal.Coalesce(shape, cells))
				probe := cells[rng.Intn(len(cells))].Coords
				if got, want := rt.Cell(probe), mirror.At(probe...); got != want {
					t.Fatalf("Cell(%v) = %d after scatter, want %d", probe, got, want)
				}
			}
			q, sq, sc := rt.Stats()
			if q == 0 || sq < q || sc == 0 {
				t.Fatalf("stats (%d,%d,%d) do not reflect the workload", q, sq, sc)
			}
		}
	}
}

// TestOneShardRouterIsTheStructures pins the claim the unsharded server rests
// on: a router over a one-shard map is the paper's structures called
// directly. Sum, SumFull and Extreme return the same values, bounds, cells
// and §8 cost counters as blocked/maxtree built over the same cells and fed
// the same update batches, and the router serves the array it was given in
// place, each delta landing once. At b = 1 the index is §3 itself: the values
// and accesses of prefixsum.Sum over P, one more step (the fold of the one,
// internal, region) and bounds equal to the value.
func TestOneShardRouterIsTheStructures(t *testing.T) {
	g := workload.SeededGen(t, *seedFlag, 2)
	ctx := context.Background()
	const fanout = 3
	for _, blockSize := range []int{1, 3} {
		shape := []int{9, 7, 4}
		cells := g.UniformCube(shape, 100)
		m, err := NewMap(shape, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		own := cells.Clone() // the directly-built structures' cube
		ps := prefixsum.BuildInt(own)
		bl := newBlockedSum(own, blockSize) // with edge arrays, as the engine builds it
		mx := maxtree.Build(own.Clone(), fanout)
		mn := maxtree.BuildMin(own.Clone(), fanout)
		rt, err := NewRouter(cells, m, blockSize, fanout, "")
		if err != nil {
			t.Fatal(err)
		}
		if rt.shards[0].(*localEngine).cells != cells {
			t.Fatal("one-shard router does not serve in place")
		}
		for step := 0; step < 25; step++ {
			r := g.UniformRegion(shape)
			var want, got, gotFull metrics.Counter
			wantSum, err := bl.SumContext(ctx, r, &want)
			if err != nil {
				t.Fatal(err)
			}
			wantLo, wantHi := blocked.Bounds(bl, r, nil)
			if blockSize == 1 {
				var pc metrics.Counter
				if v := ps.Sum(r, &pc); v != wantSum || wantLo != v || wantHi != v || pc.Cells != want.Cells || pc.Aux != want.Aux || pc.Steps+1 != want.Steps {
					t.Fatalf("step %d: b=1 sums %v to %d in [%d,%d] cost %v, P to %d cost %v", step, r, wantSum, wantLo, wantHi, want, v, pc)
				}
			}
			sum, err := rt.Sum(ctx, r, &got)
			if err != nil || sum != wantSum || got != want {
				t.Fatalf("b=%d step %d: Sum(%v) = %d cost %v (err %v), direct %d cost %v", blockSize, step, r, sum, got, err, wantSum, want)
			}
			full, err := sumFull(ctx, rt, r, &gotFull)
			if err != nil || full.Value != wantSum || full.Lo != wantLo || full.Hi != wantHi || full.Partial() || gotFull != want {
				t.Fatalf("b=%d step %d: sumFull(%v) = %+v cost %v (err %v), direct %d in [%d,%d] cost %v",
					blockSize, step, r, full, gotFull, err, wantSum, wantLo, wantHi, want)
			}
			for _, tree := range []*maxtree.Tree[int64]{mx, mn} {
				var want, got metrics.Counter
				off, wantV, wantOK, err := tree.MaxIndexContext(ctx, r, &want)
				if err != nil {
					t.Fatal(err)
				}
				coords, v, ok, err := rt.Extreme(ctx, r, tree == mn, &got)
				if err != nil || ok != wantOK || v != wantV || got != want {
					t.Fatalf("b=%d step %d min=%v: Extreme(%v) = (%d,%v) cost %v (err %v), direct (%d,%v) cost %v",
						blockSize, step, tree == mn, r, v, ok, got, err, wantV, wantOK, want)
				}
				if ok && !reflect.DeepEqual(coords, own.Coords(off, nil)) {
					t.Fatalf("b=%d step %d: Extreme at %v, direct tree at %v", blockSize, step, coords, own.Coords(off, nil))
				}
			}
			ups := g.Updates(shape, 1+step%4, 20)
			deltas := make([]batchsum.IntUpdate, len(ups))
			pds := make([]wal.Update, len(ups))
			for i, u := range ups {
				deltas[i] = batchsum.IntUpdate{Coords: u.Coords, Delta: u.Delta}
				pds[i] = wal.Update{Coords: u.Coords, Delta: u.Delta}
			}
			batchsum.ApplyInt(ps, deltas, nil)
			batchsum.ApplyBlockedInt(bl, deltas, nil)
			assigns := make([]maxtree.PointUpdate[int64], len(ups))
			for i, u := range ups {
				assigns[i] = maxtree.PointUpdate[int64]{Coords: u.Coords, Value: own.At(u.Coords...)}
			}
			mx.BatchUpdate(assigns, nil)
			mn.BatchUpdate(assigns, nil)
			rt.Apply(ctx, wal.Coalesce(shape, pds))
			if !reflect.DeepEqual(cells.Data(), own.Data()) {
				t.Fatalf("b=%d step %d: the router's in-place cells diverged from the directly-updated cube", blockSize, step)
			}
		}
	}
}

// sumFull answers one OpSumFull — a range sum, its §11 bounds and, when
// remote shards are down, the partial-answer degradation — through Answer.
func sumFull(ctx context.Context, rt *Router, r ndarray.Region, c *metrics.Counter) (SumResult, error) {
	as, err := rt.Answer(ctx, []Query{{Op: OpSumFull, Region: r}}, []*metrics.Counter{c})
	if err != nil {
		return SumResult{}, err
	}
	return as[0].SumResult, as[0].Err
}

// TestOneShardSumFullStaysCheap pins what the router may add to the
// unsharded server's hottest call: on a one-shard map a one-query OpSumFull
// Answer is the blocked index's SumBoundsContext plus a fixed handful of small
// allocations (the query and counter slices, the scatter's groups, the cut
// region and its item, the error and answer slices), run on the calling
// goroutine. Per-sub heap pointers, a closure for the pool and a reassigned
// captured context took it to ten, which showed end to end as a slower and
// less steady GET /query. An extreme rides the same path and is held to what
// it cost before it did (six).
func TestOneShardSumFullStaysCheap(t *testing.T) {
	g := workload.SeededGen(t, *seedFlag, 2)
	ctx := context.Background()
	shape := []int{64, 64}
	m, err := NewMap(shape, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(g.UniformCube(shape, 100), m, 8, 4, "prefixsum")
	if err != nil {
		t.Fatal(err)
	}
	r := ndarray.Region{{Lo: 5, Hi: 40}, {Lo: 9, Hi: 33}}
	var c metrics.Counter
	e := rt.shards[0].(*localEngine)
	direct := testing.AllocsPerRun(200, func() { blocked.SumBoundsContext(ctx, e.blk, r, &c) })
	routed := testing.AllocsPerRun(200, func() { rt.Answer(ctx, []Query{{Op: OpSumFull, Region: r}}, []*metrics.Counter{&c}) })
	if routed > direct+7 {
		t.Fatalf("one-shard OpSumFull Answer allocates %.0f times per call, the engine alone %.0f: the router may add at most 7", routed, direct)
	}
	direct = testing.AllocsPerRun(200, func() {
		off, _, _, _ := e.max.MaxIndexContext(ctx, r, &c)
		e.max.Cube().Coords(off, nil)
	})
	routed = testing.AllocsPerRun(200, func() { rt.Answer(ctx, []Query{{Op: OpMax, Region: r}}, []*metrics.Counter{&c}) })
	if routed > direct+6 {
		t.Fatalf("one-shard OpMax Answer allocates %.0f times per call, the engine alone %.0f: the router may add at most 6", routed, direct)
	}
}

// TestQueriesDoNotFork pins the one level of query parallelism: a read forks
// over one engine's items (localEngine.Answer) and nowhere below. With four
// workers on offer, no single query dispatches a pool run: a blocked sum whose
// boundary scans read more than the pool's grain, a max descent over more
// than the grain's cells. A batch over a 4-shard in-process router makes at
// most one pool call per busy engine, and a batch of one makes none.
func TestQueriesDoNotFork(t *testing.T) {
	prev := parallel.SetMaxWorkers(4)
	t.Cleanup(func() { parallel.SetMaxWorkers(prev) })
	g := workload.SeededGen(t, *seedFlag, 3)
	ctx := context.Background()

	big := g.UniformCube([]int{1024, 1024}, 1000)
	big.Set(1_000_000, 0, 0) // the cube's maximum lies outside r, so the search descends
	paper := blocked.BuildInt(big, 32)
	tree := maxtree.Build(big, 4)
	m, err := NewMap([]int{64, 64}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(g.UniformCube([]int{64, 64}, 100), m, 4, 4, "blocked")
	if err != nil {
		t.Fatal(err)
	}

	r := ndarray.Region{{Lo: 16, Hi: 1007}, {Lo: 16, Hi: 1007}} // mid-block on every side: the strips are scanned directly
	calls, _, _ := parallel.Stats()
	var c metrics.Counter
	paper.Sum(r, &c)
	if c.Cells < parallel.Grain {
		t.Fatalf("the sum's boundary scans read %d cells, under the pool's grain %d", c.Cells, parallel.Grain)
	}
	if after, _, _ := parallel.Stats(); after != calls {
		t.Errorf("one blocked sum made %d pool dispatches, want 0", after-calls)
	}

	calls, _, _ = parallel.Stats()
	if _, v, _ := tree.MaxIndex(r, nil); v == 1_000_000 {
		t.Fatal("the max search found the cell outside its region")
	}
	if after, _, _ := parallel.Stats(); after != calls {
		t.Errorf("one max descent over %d cells made %d pool dispatches, want 0", r.Volume(), after-calls)
	}

	calls, _, _ = parallel.Stats()
	whole := ndarray.Region{{Lo: 0, Hi: 63}, {Lo: 0, Hi: 63}}
	if _, err := rt.Answer(ctx, []Query{{OpSumFull, whole}, {OpMax, whole}}, nil); err != nil {
		t.Fatal(err)
	}
	if after, _, _ := parallel.Stats(); after-calls > int64(rt.Shards()) {
		t.Errorf("one batch over a %d-shard in-process router made %d pool calls, want at most one per engine", rt.Shards(), after-calls)
	}

	calls, _, _ = parallel.Stats()
	if _, err := rt.Answer(ctx, []Query{{OpSumFull, whole}}, nil); err != nil {
		t.Fatal(err)
	}
	if after, _, _ := parallel.Stats(); after != calls {
		t.Errorf("a batch of one over a %d-shard in-process router made %d pool calls, want 0", rt.Shards(), after-calls)
	}
}

// TestPanicFailsItsItemAlone hands a local router a batch of good queries and
// one whose region runs past the cube in the unsplit dimension, which the
// router's cut passes through unchecked, so its evaluation panics. With four
// workers on offer and the bad region's volume past the pool's grain, the
// batch forks: the panic happens on a pool goroutine. The good answers equal
// the naive oracle, and only the bad query fails, with an error wrapping
// ErrPanic.
func TestPanicFailsItsItemAlone(t *testing.T) {
	prev := parallel.SetMaxWorkers(4)
	t.Cleanup(func() { parallel.SetMaxWorkers(prev) })
	g := workload.SeededGen(t, *seedFlag, 4)
	ctx := context.Background()
	shape := []int{64, 64}
	cells := g.UniformCube(shape, 100)
	mirror := cells.Clone()
	for _, shards := range []int{1, 2} {
		m, err := NewMap(shape, 0, shards)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRouter(cells.Clone(), m, 1, 4, "")
		if err != nil {
			t.Fatal(err)
		}
		bad := ndarray.Region{{Lo: 0, Hi: 63}, {Lo: 0, Hi: 1 << 20}}
		var qs []Query
		for k := 0; k < 12; k++ {
			qs = append(qs, Query{Op: []Op{OpSum, OpSumFull, OpMax, OpMin}[k%4], Region: g.UniformRegion(shape)})
			if k == 5 {
				qs = append(qs, Query{Op: OpSumFull, Region: bad})
			}
		}
		as, err := rt.Answer(ctx, qs, nil)
		if err != nil {
			t.Fatalf("%d shards: a panicking item failed the whole batch: %v", shards, err)
		}
		for k, q := range qs {
			a := as[k]
			if q.Region.Equal(bad) {
				if !errors.Is(a.Err, ErrPanic) {
					t.Fatalf("%d shards: the region past the cube answered %+v, want an error wrapping ErrPanic", shards, a)
				}
				continue
			}
			if a.Err != nil {
				t.Fatalf("%d shards: query %d (%v over %v) failed beside the panic: %v", shards, k, q.Op, q.Region, a.Err)
			}
			switch q.Op {
			case OpSum, OpSumFull:
				if want := naiveSum(mirror, q.Region); a.Value != want {
					t.Fatalf("%d shards: query %d sums %v to %d, want %d", shards, k, q.Region, a.Value, want)
				}
			default:
				if want, _ := naiveExtreme(mirror, q.Region, q.Op == OpMin); a.Value != want || a.At == nil {
					t.Fatalf("%d shards: query %d %v over %v = %d at %v, want %d", shards, k, q.Op, q.Region, a.Value, a.At, want)
				}
			}
		}
	}
}
