package shard

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/metrics"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
	"rangecube/internal/wal"
	"rangecube/internal/workload"
)

// checkTreeIsFresh reads every node of tree from outside — a query for
// exactly one node's block is answered from that node's stored entry — and
// holds it to a tree freshly built over the same cells: the same value, at an
// offset inside the block that holds it.
func checkTreeIsFresh(t *testing.T, tree *maxtree.Tree[int64], what string) {
	t.Helper()
	a := tree.Cube()
	fresh := maxtree.Build(a, tree.Fanout())
	if tree.IsMin() {
		fresh = maxtree.BuildMin(a, tree.Fanout())
	}
	shape := a.Shape()
	for side, lvl := tree.Fanout(), 1; lvl <= tree.Height(); side, lvl = side*tree.Fanout(), lvl+1 {
		grid := make([]int, len(shape))
		for j, n := range shape {
			grid[j] = (n + side - 1) / side
		}
		ndarray.New[bool](grid...).Bounds().ForEach(func(k []int) {
			block := make(ndarray.Region, len(k))
			for j := range k {
				block[j] = ndarray.Range{Lo: k[j] * side, Hi: min((k[j]+1)*side, shape[j]) - 1}
			}
			off, v, _ := tree.MaxIndex(block, nil)
			_, want, _ := fresh.MaxIndex(block, nil)
			if v != want || a.Data()[off] != v || !block.Contains(a.Coords(off, nil)) {
				t.Fatalf("%s: level %d node %v answers %d at offset %d (cell holds %d), a fresh build %d",
					what, lvl, k, v, off, a.Data()[off], want)
			}
		})
	}
}

// checkEdgesFresh reads every entry of every edge array of bl from outside —
// a sum over exactly the cells one entry covers is answered from that entry,
// or from a coarser array, and never from the cells — and holds it to a naive
// scan of those cells. There is one edge array per non-empty proper subset of
// the blocked dimensions, as long as the block size gives them something to
// contract: a dimension is blocked when its extent exceeds 1, since a slab one
// cell thick is never partial in it.
func checkEdgesFresh(t *testing.T, bl *blocked.IntArray, what string) {
	t.Helper()
	a, b := bl.Cube(), bl.BlockSize()
	shape, d := a.Shape(), a.Dims()
	blockedDims := 0
	for j, n := range shape {
		if n > 1 {
			blockedDims |= 1 << j
		}
	}
	entries := 0
	for keep := (blockedDims - 1) & blockedDims; b > 1 && keep != 0; keep = (keep - 1) & blockedDims {
		grid := make([]int, d)
		for j, n := range shape {
			grid[j] = n
			if keep&(1<<j) == 0 {
				grid[j] = (n + b - 1) / b
			}
		}
		ndarray.New[bool](grid...).Bounds().ForEach(func(k []int) {
			entries++
			covered := make(ndarray.Region, d)
			for j := range k {
				covered[j] = ndarray.Range{Lo: k[j], Hi: k[j]}
				if keep&(1<<j) == 0 {
					covered[j] = ndarray.Range{Lo: k[j] * b, Hi: min((k[j]+1)*b, shape[j]) - 1}
				}
			}
			var c metrics.Counter
			if got, want := bl.Sum(covered, &c), naiveSum(a, covered); got != want || c.Cells != 0 {
				t.Fatalf("%s: the edge array keeping dimensions %b answers %d for entry %v (cells %v, %d of them read), a fresh contraction %d",
					what, keep, got, k, covered, c.Cells, want)
			}
		})
	}
	if bl.EdgeSize() != entries {
		t.Fatalf("%s: the edge arrays hold %d entries, want %d", what, bl.EdgeSize(), entries)
	}
}

// TestStructuresShareCells drives the aliasing the engine rests on: the
// blocked index and both trees index one cell array, one of them writes it,
// and the trees repair from the (old, new) list the engine captured around
// that write. Every batch carries what could break that — negative cells, a
// cell named twice, a cell whose deltas cancel (both folded by wal.Coalesce,
// as a commit folds them), and a decrease of the current maximum and
// increase of the current minimum (forced §7 rescans) — and after
// every batch the whole query surface equals a naive mirror, each tree equals
// a fresh build over the cells, every edge array equals a fresh contraction of
// them, and the structures still alias one array — at b = 1, where the index
// is §3's P and nothing is built beside it, as at b > 1.
func TestStructuresShareCells(t *testing.T) {
	g := workload.SeededGen(t, *seedFlag, 3)
	rng := rand.New(rand.NewSource(*seedFlag + 0x5a11))
	ctx := context.Background()
	for _, blockSize := range []int{1, 2, 3} {
		for d := 1; d <= 3; d++ {
			for _, shards := range []int{1, 3} {
				shape := make([]int, d)
				for j := range shape {
					shape[j] = 5 + rng.Intn(8)
				}
				m, err := NewMap(shape, rng.Intn(d), shards)
				if err != nil {
					t.Fatal(err)
				}
				mirror := g.UniformCube(shape, 201)
				for i := range mirror.Data() {
					mirror.Data()[i] -= 100
				}
				given := mirror.Clone()
				rt, err := NewRouter(given, m, blockSize, 2+rng.Intn(2), "")
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("b=%d d=%d shards=%d", blockSize, d, shards)
				for step := 0; step < 12; step++ {
					var cells []wal.Update
					for _, u := range g.Updates(shape, 1+rng.Intn(6), 150) {
						cells = append(cells, wal.Update{Coords: u.Coords, Delta: u.Delta})
					}
					twice, cancel := cells[0].Coords, cells[len(cells)-1].Coords
					maxOff, _, _ := naive.Max(mirror, mirror.Bounds(), nil)
					minOff, _, _ := naive.Min(mirror, mirror.Bounds(), nil)
					cells = append(cells,
						wal.Update{Coords: twice, Delta: int64(rng.Intn(301) - 150)},
						wal.Update{Coords: cancel, Delta: 77},
						wal.Update{Coords: mirror.Coords(maxOff, nil), Delta: -int64(1 + rng.Intn(300))},
						wal.Update{Coords: mirror.Coords(minOff, nil), Delta: int64(1 + rng.Intn(300))},
						wal.Update{Coords: cancel, Delta: -77})
					rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
					for _, c := range cells {
						mirror.Set(mirror.At(c.Coords...)+c.Delta, c.Coords...)
					}
					rt.Apply(ctx, wal.Coalesce(shape, cells))

					for q := 0; q < 8; q++ {
						r := g.UniformRegion(shape)
						if q == 0 {
							r = mirror.Bounds()
						}
						want := naiveSum(mirror, r)
						if got, err := rt.Sum(ctx, r, nil); err != nil || got != want {
							t.Fatalf("%s step %d: Sum(%v) = %d (err %v), want %d", what, step, r, got, err, want)
						}
						full, err := sumFull(ctx, rt, r, nil)
						if err != nil || full.Value != want || full.Partial() || (blockSize == 1 && (full.Lo != want || full.Hi != want)) {
							t.Fatalf("%s step %d: sumFull(%v) = %+v (err %v), want %d", what, step, r, full, err, want)
						}
						for _, min := range []bool{false, true} {
							coords, v, ok, err := rt.Extreme(ctx, r, min, nil)
							wantV, wantOK := naiveExtreme(mirror, r, min)
							if err != nil || ok != wantOK || v != wantV || (ok && mirror.At(coords...) != v) {
								t.Fatalf("%s step %d min=%v: Extreme(%v) = %d at %v (ok %v, err %v), want %d (ok %v)",
									what, step, min, r, v, coords, ok, err, wantV, wantOK)
							}
						}
					}
					for i, eng := range rt.shards {
						e := eng.(*localEngine)
						if e.blk.Cube() != e.cells || e.max.Cube() != e.cells || e.min.Cube() != e.cells || (shards == 1 && e.cells != given) {
							t.Fatalf("%s step %d shard %d: the structures no longer index one cell array", what, step, i)
						}
						if blockSize == 1 && (e.blk.AuxSize() != e.cells.Size() || e.blk.EdgeSize() != 0) {
							t.Fatalf("%s step %d shard %d: the b = 1 index holds %d packed and %d edge entries over %d cells, want P alone",
								what, step, i, e.blk.AuxSize(), e.blk.EdgeSize(), e.cells.Size())
						}
						if !slices.Equal(e.cells.Data(), SlabCopy(mirror, m, i).Data()) {
							t.Fatalf("%s step %d shard %d: cells diverged from the mirror's slab", what, step, i)
						}
						checkEdgesFresh(t, e.blk, what)
						checkTreeIsFresh(t, e.max, what+" max tree")
						checkTreeIsFresh(t, e.min, what+" min tree")
					}
				}
			}
		}
	}
}

// TestOnlyWhatAnswersIsBuilt holds the engine's space to the paper's trade: at
// b > 1 it allocates no N-sized array at all while it is built — the packed
// array, the edge arrays and both trees together stay within the closed form
// cells·(∏(1+1/b_j) − 1) plus the trees' nodes — and at b = 1 exactly one, the
// packed array that is §3's P, with no edge array and no second copy of P
// beside it. A router reports those bytes under the same names, and the block
// size is the one knob: the deprecated engine names resolve to a block size,
// and nothing else does.
func TestOnlyWhatAnswersIsBuilt(t *testing.T) {
	shape := []int{512, 512}
	const fanout = 4
	cells := workload.New(*seedFlag).UniformCube(shape, 1000)
	cellBytes := uint64(8 * cells.Size())
	for _, blockSize := range []uint64{10, 1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := newLocalEngine(cells, int(blockSize), fanout)
		runtime.ReadMemStats(&after)
		trees := uint64(16 * (e.max.Nodes() + e.min.Nodes()))
		// Slack, 5% of the cells, of which a quarter is used: 512 is not a
		// multiple of 10, so every contracted extent is 52 where the closed
		// form has 51.2 (+7 KiB), and the builds' transients (~17 KiB).
		limit := trees + cellBytes/20 + cellBytes*((blockSize+1)*(blockSize+1)-blockSize*blockSize)/(blockSize*blockSize)
		wantEdges := 2 * 512 * 52
		if blockSize == 1 {
			limit, wantEdges = trees+cellBytes/20+cellBytes, 0
			if e.blk.AuxSize() != cells.Size() {
				t.Errorf("b=1: the packed array holds %d entries over %d cells, want P", e.blk.AuxSize(), cells.Size())
			}
		}
		if e.blk.EdgeSize() != wantEdges {
			t.Errorf("b=%d: the edge arrays hold %d entries, want %d", blockSize, e.blk.EdgeSize(), wantEdges)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("b=%d: building the engine allocated %d bytes over %d bytes of cells, want under %d", blockSize, got, cellBytes, limit)
		}
	}

	m, err := NewMap(shape, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, alias := range []string{"blocked", "prefixsum"} {
		rt, err := NewRouter(cells.Clone(), m, 10, fanout, alias)
		if err != nil {
			t.Fatal(err)
		}
		rt.Apply(context.Background(), []wal.Update{{Coords: []int{3, 3}, Delta: 5}, {Coords: []int{400, 9}, Delta: -2}})
		got := rt.StructureBytes()
		want := map[string]int64{"cells": 8 * 512 * 512, "blocked": 8 * 52 * 52, "edges": 8 * 2 * 512 * 52, "maxtree": got["maxtree"], "mintree": got["mintree"]}
		if alias == "prefixsum" {
			want["blocked"], want["edges"] = want["cells"], 0
		}
		// Each shard's queue holds its one delta's block: an offset, a value
		// and one coordinate of 8 bytes.
		want["blocked"] += 2 * 24
		if !maps.Equal(got, want) {
			t.Errorf("%s router: StructureBytes %v, want %v", alias, got, want)
		}
	}
	for _, c := range []struct {
		alias     string
		blockSize int
		want      int
	}{{"", 10, 10}, {"blocked", 10, 10}, {"prefixsum", 10, 1}, {"", 0, 1}, {"blocked", -3, 1}} {
		if got, err := ResolveBlockSize(c.alias, c.blockSize); err != nil || got != c.want {
			t.Errorf("ResolveBlockSize(%q, %d) = %d, %v; want %d", c.alias, c.blockSize, got, err, c.want)
		}
	}
	if _, err := NewRouter(cells, m, 10, fanout, "sumtree"); err == nil {
		t.Error("NewRouter accepted an unknown sum engine")
	}
}

// TestCommitQueuesInsteadOfRewritingP is the counting pin of the queued §5
// apply. On a 1024² engine at b = 1, where the eager apply rewrote most of P
// on every commit, a commit of 16 deltas writes its 16 cells and no packed
// entry while the queue fills. The commit that brings it to ⌈√N⌉ = 1,024
// blocks folds it, writing each P entry at or after the first queued one
// exactly once, and leaves P what a fresh build over the cells holds.
func TestCommitQueuesInsteadOfRewritingP(t *testing.T) {
	const n = 1024
	shape := []int{n, n}
	g := workload.New(*seedFlag)
	e := newLocalEngine(g.UniformCube(shape, 1000), 1, 4)
	queued, first := map[int]bool{}, n*n
	for commit := 1; ; commit++ {
		var deltas []wal.Update
		for _, u := range g.Updates(shape, 16, 100) {
			deltas = append(deltas, wal.Update{Coords: u.Coords, Delta: u.Delta})
			queued[e.cells.Offset(u.Coords...)] = true
			first = min(first, e.cells.Offset(u.Coords...))
		}
		var c metrics.Counter
		e.apply(context.Background(), deltas, &c)
		if len(queued) < n {
			if c.Cells != 16 || c.Aux != 0 || c.Steps != 0 || e.queued != len(queued) {
				t.Fatalf("commit %d, %d blocks queued: wrote %v with %d queued, want 16 cells and nothing else", commit, len(queued), &c, e.queued)
			}
			continue
		}
		if want := int64(n*n - first); c.Cells != 16 || c.Aux != want || c.Steps != want || e.queued != 0 {
			t.Fatalf("commit %d folds %d blocks from offset %d: wrote %v with %d left queued, want 16 cells and %d P entries",
				commit, len(queued), first, &c, e.queued, want)
		}
		t.Logf("commit %d folded %d blocks: %d P writes, %.0f per commit", commit, len(queued), c.Aux, float64(c.Aux)/float64(commit))
		break
	}
	if fresh := prefixsum.BuildInt(e.cells); !slices.Equal(e.blk.Packed().P().Data(), fresh.P().Data()) {
		t.Fatal("after the fold P differs from a fresh build over the cells")
	}
}

// TestQueuedSumAllocatesNothing: a b = 1 sum over a full queue — ⌈√N⌉ − 1
// blocks, the most a reader can find there — still allocates nothing, and
// reports exactly the accesses it reports over an empty queue: the queue is
// the write side's bookkeeping, not a §8 structure.
func TestQueuedSumAllocatesNothing(t *testing.T) {
	const n = 256
	shape := []int{n, n}
	g := workload.New(*seedFlag)
	e := newLocalEngine(g.UniformCube(shape, 1000), 1, 4)
	ctx := context.Background()
	regions := make([]ndarray.Region, 32)
	costs := make([]metrics.Counter, len(regions))
	for i := range regions {
		regions[i] = g.UniformRegion(shape)
		e.blk.SumContext(ctx, regions[i], &costs[i])
	}
	for i := 0; i < n-1; i++ {
		e.apply(ctx, []wal.Update{{Coords: []int{i, i * 7 % n}, Delta: int64(i - 100)}}, nil)
	}
	if e.queued != n-1 {
		t.Fatalf("%d blocks queued, want %d", e.queued, n-1)
	}
	for i, r := range regions {
		var c metrics.Counter
		if v, err := e.blk.SumContext(ctx, r, &c); err != nil || v != naiveSum(e.cells, r) || c != costs[i] {
			t.Fatalf("Sum(%v) over a full queue = %d at cost %v (err %v), want %d at %v", r, v, &c, err, naiveSum(e.cells, r), &costs[i])
		}
		if allocs := testing.AllocsPerRun(20, func() { e.blk.SumContext(ctx, r, &c) }); allocs != 0 {
			t.Fatalf("Sum(%v) over a full queue allocates %v objects, want 0", r, allocs)
		}
	}
}

// TestEdgedSumAllocatesNothing: at b = 32 over a 1024² slab, where every sum
// walks the §4.2 decomposition and plans its corners per dimension, a sum
// with and without its §11 bounds allocates nothing over the benchmark's 16
// pairs of query sides.
func TestEdgedSumAllocatesNothing(t *testing.T) {
	const n = 1024
	shape := []int{n, n}
	g := workload.New(*seedFlag)
	e := newLocalEngine(g.UniformCube(shape, 1000), 32, 4)
	ctx := context.Background()
	sides := []int{n / 16, n / 8, n / 4, n / 2}
	for i := 0; i < 16; i++ {
		r := g.FixedSizeRegion(shape, []int{sides[i%4], sides[i/4]})
		var c metrics.Counter
		if v, err := e.blk.SumContext(ctx, r, &c); err != nil || v != naiveSum(e.cells, r) || c.Cells+c.Aux == 0 {
			t.Fatalf("Sum(%v) = %d at cost %v (err %v), want %d", r, v, &c, err, naiveSum(e.cells, r))
		}
		if allocs := testing.AllocsPerRun(20, func() { e.blk.SumContext(ctx, r, &c) }); allocs != 0 {
			t.Fatalf("Sum(%v) allocates %v objects, want 0", r, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { blocked.SumBoundsContext(ctx, e.blk, r, &c) }); allocs != 0 {
			t.Fatalf("SumBoundsContext(%v) allocates %v objects, want 0", r, allocs)
		}
	}
}

// The paper's space/update/query trade (§4, §5.2), one command away:
//
//	go test -run '^$' -bench LocalEngine -benchmem ./internal/shard
//
// Build reports what an engine allocates over a 1024² slab, Apply what one
// commit of 16 deltas costs it, the queue's fold amortized, Sum what one
// range-sum with §11 bounds costs it over the benchmark's 16 pairs of query
// sides, each at b = 1 (§3's P, "prefixsum") and at b = 10 ("blocked").
var benchBlockSizes = []struct {
	name      string
	blockSize int
}{{"prefixsum", 1}, {"blocked", 10}}

func BenchmarkLocalEngineBuild(b *testing.B) {
	cells := workload.New(1).UniformCube([]int{1024, 1024}, 1000)
	for _, eng := range benchBlockSizes {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newLocalEngine(cells, eng.blockSize, 4)
			}
		})
	}
}

func BenchmarkLocalEngineApply(b *testing.B) {
	g := workload.New(1)
	shape := []int{1024, 1024}
	for _, eng := range benchBlockSizes {
		b.Run(eng.name, func(b *testing.B) {
			e := newLocalEngine(g.UniformCube(shape, 1000), eng.blockSize, 4)
			// Fresh cells every commit, so the queue fills and folds as it does
			// in service: the cost per op includes the fold, amortized.
			commits := make([][]wal.Update, 4096)
			for i := range commits {
				for _, u := range g.Updates(shape, 16, 100) {
					commits[i] = append(commits[i], wal.Update{Coords: u.Coords, Delta: u.Delta})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.apply(context.Background(), commits[i%len(commits)], nil)
			}
		})
	}
}

func BenchmarkLocalEngineSum(b *testing.B) {
	g := workload.New(1)
	const n = 1024
	shape := []int{n, n}
	sides := []int{n / 16, n / 8, n / 4, n / 2}
	regions := make([]ndarray.Region, 256)
	for i := range regions {
		regions[i] = g.FixedSizeRegion(shape, []int{sides[i%4], sides[i/4%4]})
	}
	for _, eng := range benchBlockSizes {
		b.Run(eng.name, func(b *testing.B) {
			e := newLocalEngine(g.UniformCube(shape, 1000), eng.blockSize, 4)
			var cost metrics.Counter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := blocked.SumBoundsContext(context.Background(), e.blk, regions[i%len(regions)], &cost); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost.Total())/float64(b.N), "accesses/op")
		})
	}
}

// TestOneShardApplyCopiesNoCell: a one-shard router's slab frame is the
// logical one, so Apply hands the batch to its engine as it is, and the
// engine keeps its (cell, old, new) list and the trees their repair buffers
// across commits. So Apply allocates the same for 64 cells as for one. Every
// run adds 1 to each cell, so the trees repair for real; the queue never
// fills, since the same cells name the same blocks.
func TestOneShardApplyCopiesNoCell(t *testing.T) {
	shape := []int{256, 256}
	g := workload.New(*seedFlag)
	m, err := NewMap(shape, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(g.UniformCube(shape, 1000), m, 1, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := func(n int) float64 {
		cells := make([]wal.Update, n)
		for i := range cells {
			cells[i] = wal.Update{Coords: []int{4 * i, 255 - i}, Delta: 1}
		}
		return testing.AllocsPerRun(50, func() { rt.Apply(ctx, cells) })
	}
	if one, many := allocs(1), allocs(64); one != many {
		t.Fatalf("Apply allocates %v times for one cell and %v for 64, want the same", one, many)
	}
}
