package shard

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/metrics"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
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
// scan of those cells. wantEdges is whether bl answers its engine's sums: only
// then are there edge arrays, one per non-empty proper subset of the
// dimensions, as long as the block size gives them something to contract.
func checkEdgesFresh(t *testing.T, bl *blocked.IntArray, wantEdges bool, what string) {
	t.Helper()
	a, b := bl.Cube(), bl.BlockSize()
	shape, d := a.Shape(), a.Dims()
	entries := 0
	for keep := 1; wantEdges && b > 1 && keep < 1<<d-1; keep++ {
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
// cell named twice, a cell whose deltas cancel, and a decrease of the current
// maximum and increase of the current minimum (forced §7 rescans) — and after
// every batch the whole query surface equals a naive mirror, each tree equals
// a fresh build over the cells, every edge array equals a fresh contraction of
// them, and the structures still alias one array.
func TestStructuresShareCells(t *testing.T) {
	g := workload.SeededGen(t, *seedFlag, 3)
	rng := rand.New(rand.NewSource(*seedFlag + 0x5a11))
	ctx := context.Background()
	for _, sumEngine := range []string{"prefixsum", "blocked"} {
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
				rt, err := NewRouter(given, m, 1+rng.Intn(3), 2+rng.Intn(2), sumEngine)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s d=%d shards=%d", sumEngine, d, shards)
				for step := 0; step < 12; step++ {
					var cells []PointDelta
					for _, u := range g.Updates(shape, 1+rng.Intn(6), 150) {
						cells = append(cells, PointDelta{Coords: u.Coords, Delta: u.Delta})
					}
					twice, cancel := cells[0].Coords, cells[len(cells)-1].Coords
					maxOff, _, _ := naive.Max(mirror, mirror.Bounds(), nil)
					minOff, _, _ := naive.Min(mirror, mirror.Bounds(), nil)
					cells = append(cells,
						PointDelta{Coords: twice, Delta: int64(rng.Intn(301) - 150)},
						PointDelta{Coords: cancel, Delta: 77},
						PointDelta{Coords: mirror.Coords(maxOff, nil), Delta: -int64(1 + rng.Intn(300))},
						PointDelta{Coords: mirror.Coords(minOff, nil), Delta: int64(1 + rng.Intn(300))},
						PointDelta{Coords: cancel, Delta: -77})
					rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
					for _, c := range cells {
						mirror.Set(mirror.At(c.Coords...)+c.Delta, c.Coords...)
					}
					rt.Apply(ctx, cells)

					for q := 0; q < 8; q++ {
						r := g.UniformRegion(shape)
						if q == 0 {
							r = mirror.Bounds()
						}
						want := naiveSum(mirror, r)
						if got, err := rt.Sum(ctx, r, nil); err != nil || got != want {
							t.Fatalf("%s step %d: Sum(%v) = %d (err %v), want %d", what, step, r, got, err, want)
						}
						if full, err := rt.SumFull(ctx, r, nil); err != nil || full.Value != want || full.Partial() {
							t.Fatalf("%s step %d: SumFull(%v) = %+v (err %v), want %d", what, step, r, full, err, want)
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
						if (e.sum != nil) != (sumEngine == "prefixsum") {
							t.Fatalf("%s step %d shard %d: prefix-sum array built = %v", what, step, i, e.sum != nil)
						}
						if !slices.Equal(e.cells.Data(), SlabCopy(mirror, m, i).Data()) {
							t.Fatalf("%s step %d shard %d: cells diverged from the mirror's slab", what, step, i)
						}
						checkEdgesFresh(t, e.blk, sumEngine == "blocked", what)
						checkTreeIsFresh(t, e.max, what+" max tree")
						checkTreeIsFresh(t, e.min, what+" min tree")
					}
				}
			}
		}
	}
}

// TestOnlyWhatAnswersIsBuilt holds the engine's space to the paper's trade: a
// "blocked" engine allocates no N-sized array at all while it is built — the
// packed array, the edge arrays and both trees together stay within the closed
// form cells·(∏(1+1/b_j) − 1) plus the trees' nodes — a "prefixsum" engine
// exactly one, P, and no edge array; and a "blocked" router's Apply has no
// prefix-sum array to touch.
func TestOnlyWhatAnswersIsBuilt(t *testing.T) {
	shape := []int{512, 512}
	const blockSize, fanout = 10, 4
	cells := workload.New(*seedFlag).UniformCube(shape, 1000)
	cellBytes := uint64(8 * cells.Size())
	for _, sumEngine := range []string{"blocked", "prefixsum"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := newLocalEngine(cells, blockSize, fanout, sumEngine)
		runtime.ReadMemStats(&after)
		trees := uint64(16 * (e.max.Nodes() + e.min.Nodes()))
		// Slack, 5% of the cells, of which half is used: 512 is not a multiple
		// of 10, so every contracted extent is 52 where the closed form has
		// 51.2 (+7 KiB), and the tree builds' transients (~42 KiB).
		limit := trees + cellBytes/20
		if sumEngine == "blocked" {
			limit += cellBytes * ((blockSize+1)*(blockSize+1) - blockSize*blockSize) / (blockSize * blockSize)
			if want := 2 * 512 * 52; e.blk.EdgeSize() != want {
				t.Errorf("blocked: the edge arrays hold %d entries, want %d", e.blk.EdgeSize(), want)
			}
		} else {
			limit += cellBytes + cellBytes/(blockSize*blockSize)
			if e.blk.EdgeSize() != 0 {
				t.Errorf("prefixsum: %d edge-array entries built for a blocked index that answers no sum", e.blk.EdgeSize())
			}
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%s: building the engine allocated %d bytes over %d bytes of cells, want under %d", sumEngine, got, cellBytes, limit)
		}
		if (e.sum != nil) != (sumEngine == "prefixsum") {
			t.Errorf("%s: prefix-sum array built = %v", sumEngine, e.sum != nil)
		}
	}

	m, err := NewMap(shape, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(cells, m, blockSize, fanout, "blocked")
	if err != nil {
		t.Fatal(err)
	}
	rt.Apply(context.Background(), []PointDelta{{Coords: []int{3, 3}, Delta: 5}, {Coords: []int{400, 9}, Delta: -2}})
	for i, eng := range rt.shards {
		if eng.(*localEngine).sum != nil {
			t.Errorf("shard %d of a blocked router holds a prefix-sum array", i)
		}
	}
	if got, want := rt.StructureBytes()["prefixsum"], int64(0); got != want {
		t.Errorf("StructureBytes reports %d prefix-sum bytes under blocked, want 0", got)
	}
}

// The paper's space/update/query trade (§4, §5.2), one command away:
//
//	go test -run '^$' -bench LocalEngine -benchmem ./internal/shard
//
// Build reports what each engine allocates over a 1024² slab, Apply what one
// commit of 16 deltas costs it, Sum what one range-sum with §11 bounds costs
// it over the benchmark's 16 pairs of query sides.
func BenchmarkLocalEngineBuild(b *testing.B) {
	cells := workload.New(1).UniformCube([]int{1024, 1024}, 1000)
	for _, sumEngine := range []string{"prefixsum", "blocked"} {
		b.Run(sumEngine, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newLocalEngine(cells, 10, 4, sumEngine)
			}
		})
	}
}

func BenchmarkLocalEngineApply(b *testing.B) {
	g := workload.New(1)
	shape := []int{1024, 1024}
	for _, sumEngine := range []string{"prefixsum", "blocked"} {
		b.Run(sumEngine, func(b *testing.B) {
			e := newLocalEngine(g.UniformCube(shape, 1000), 10, 4, sumEngine)
			var deltas []batchsum.IntUpdate
			for _, u := range g.Updates(shape, 16, 100) {
				deltas = append(deltas, batchsum.IntUpdate{Coords: u.Coords, Delta: u.Delta})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range deltas {
					deltas[j].Delta = -deltas[j].Delta // keeps the cells bounded over b.N commits
				}
				if err := e.Apply(context.Background(), deltas); err != nil {
					b.Fatal(err)
				}
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
	for _, sumEngine := range []string{"prefixsum", "blocked"} {
		b.Run(sumEngine, func(b *testing.B) {
			e := newLocalEngine(g.UniformCube(shape, 1000), 10, 4, sumEngine)
			var cost metrics.Counter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := e.SumWithBounds(context.Background(), regions[i%len(regions)], &cost); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost.Total())/float64(b.N), "accesses/op")
		})
	}
}
