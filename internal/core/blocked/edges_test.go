package blocked_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rangecube/internal/algebra"
	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/metrics"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
	"rangecube/internal/workload"
)

func buildWithEdges(a *ndarray.Array[int64], bs []int) *blocked.IntArray {
	return blocked.BuildWithEdges[int64, algebra.IntSum](a, bs)
}

// checkEdgesFresh holds every edge array of bl to a fresh contraction of its
// cells, and the set of arrays to the one the block sizes call for: every
// non-empty proper subset of the blocked dimensions, those of block size and
// extent both over 1.
func checkEdgesFresh(t *testing.T, bl *blocked.IntArray, what string) {
	t.Helper()
	a, bs := bl.Cube(), bl.BlockSizes()
	blockedDims, nBlocked := uint(0), 0
	for j, b := range bs {
		if b > 1 && a.Shape()[j] > 1 {
			blockedDims |= 1 << j
			nBlocked++
		}
	}
	edges := bl.Edges()
	if want := max(1<<nBlocked-2, 0); len(edges) != want {
		t.Fatalf("%s: %d edge arrays for block sizes %v, want %d", what, len(edges), bs, want)
	}
	size := 0
	for keep, e := range edges {
		if keep == 0 || keep == blockedDims || keep&^blockedDims != 0 {
			t.Fatalf("%s: an edge array keeps dimensions %b, of blocked dimensions %b", what, keep, blockedDims)
		}
		size += e.Size()
		fresh := ndarray.New[int64](e.Shape()...)
		k := make([]int, a.Dims())
		a.Bounds().ForEach(func(coords []int) {
			for j, x := range coords {
				k[j] = x
				if keep&(1<<j) == 0 {
					k[j] = x / bs[j]
				}
			}
			fresh.Set(fresh.At(k...)+a.At(coords...), k...)
		})
		if !slices.Equal(e.Data(), fresh.Data()) {
			t.Fatalf("%s: the edge array keeping dimensions %b (shape %v) is not the contraction of the cells", what, keep, e.Shape())
		}
	}
	if bl.EdgeSize() != size {
		t.Fatalf("%s: EdgeSize = %d, the arrays hold %d", what, bl.EdgeSize(), size)
	}
}

// TestEdgeArraysAnswerAsThePaperStructure: over d = 1..4, extents that are
// not multiples of the block size, some of them 1, uniform b ∈ {1,2,3,5,8}
// and mixed per-dimension block sizes, the edge-built structure, the paper's
// structure and the naive scan agree on every sum and the two structures on
// every §11 bound — before and after ApplyBlocked batches that name cells
// twice — and the edge arrays stay the contraction of the cells, 2^k − 2 of
// them for k blocked dimensions of extent over 1.
func TestEdgeArraysAnswerAsThePaperStructure(t *testing.T) {
	g := workload.SeededGen(t, *blocked.SeedFlag, 5)
	rng := rand.New(rand.NewSource(*blocked.SeedFlag + 0xed6e))
	for d := 1; d <= 4; d++ {
		var cases [][]int
		for _, b := range []int{1, 2, 3, 5, 8} {
			bs := make([]int, d)
			for j := range bs {
				bs[j] = b
			}
			cases = append(cases, bs)
		}
		for i := 0; i < 3; i++ {
			bs := make([]int, d)
			for j := range bs {
				bs[j] = 1 + rng.Intn(6)
			}
			cases = append(cases, bs)
		}
		for _, bs := range cases {
			shape := make([]int, d)
			for j := range shape {
				shape[j] = 3 + rng.Intn(40/d)
				if rng.Intn(5) == 0 {
					shape[j] = 1
				}
			}
			what := fmt.Sprintf("shape %v bs %v", shape, bs)
			mirror := g.UniformCube(shape, 201)
			for i := range mirror.Data() {
				mirror.Data()[i] -= 100
			}
			paper := blocked.BuildIntDims(mirror.Clone(), bs)
			edged := buildWithEdges(mirror.Clone(), bs)
			checkEdgesFresh(t, edged, what)
			for step := 0; step < 4; step++ {
				for q := 0; q < 24; q++ {
					r := g.UniformRegion(shape)
					want := naive.SumInt64(mirror, r, nil)
					var cp, ce metrics.Counter
					if got := paper.Sum(r, &cp); got != want {
						t.Fatalf("%s step %d: paper Sum(%v) = %d, naive %d", what, step, r, got, want)
					}
					if got := edged.Sum(r, &ce); got != want {
						t.Fatalf("%s step %d: edged Sum(%v) = %d, naive %d", what, step, r, got, want)
					}
					if ce.Total() > cp.Total() {
						t.Fatalf("%s step %d: Sum(%v) reads %v with edge arrays, %v without", what, step, r, &ce, &cp)
					}
					wantLo, wantHi := blocked.Bounds(paper, r, nil)
					var cb metrics.Counter
					v, lo, hi, err := blocked.SumBoundsContext(context.Background(), edged, r, &cb)
					if err != nil || v != want || lo != wantLo || hi != wantHi || cb != ce {
						t.Fatalf("%s step %d: SumBoundsContext(%v) = %d in [%d,%d] cost %v (err %v), want %d in [%d,%d] cost %v",
							what, step, r, v, lo, hi, &cb, err, want, wantLo, wantHi, &ce)
					}
				}
				var ups []batchsum.IntUpdate
				for _, u := range g.Updates(shape, 1+rng.Intn(8), 150) {
					ups = append(ups, batchsum.IntUpdate{Coords: u.Coords, Delta: u.Delta})
				}
				ups = append(ups, batchsum.IntUpdate{Coords: ups[0].Coords, Delta: int64(rng.Intn(301) - 150)})
				for _, u := range ups {
					mirror.Set(mirror.At(u.Coords...)+u.Delta, u.Coords...)
				}
				batchsum.ApplyBlockedInt(paper, ups, nil)
				batchsum.ApplyBlockedInt(edged, ups, nil)
				checkEdgesFresh(t, edged, fmt.Sprintf("%s after batch %d", what, step))
			}
		}
	}
}

// TestExtentOneDimensionsAddNoEdgeArrays: a dimension one cell thick, as a
// constant CSV column makes, is never partial in a region, so it adds no edge
// array: at 256², b = 32, the edge arrays hold 2·N/b entries with up to six
// such dimensions beside the two real ones. An array keeping one would be as
// large as the one contracting it, and one keeping both real dimensions a
// copy of the cells.
func TestExtentOneDimensionsAddNoEdgeArrays(t *testing.T) {
	const n, b = 256, 32
	cells := workload.New(43).UniformCube([]int{n, n}, 1000)
	want := buildWithEdges(cells, []int{b, b}).EdgeSize()
	if want != 2*n*n/b {
		t.Fatalf("EdgeSize = %d at %d², b = %d, want 2·N/b = %d", want, n, b, 2*n*n/b)
	}
	for _, ones := range []int{1, 2, 4, 6} {
		shape, bs := []int{n, n}, []int{b, b}
		for i := 0; i < ones; i++ {
			shape, bs = append(shape, 1), append(bs, b)
		}
		a := ndarray.FromSlice(cells.Data(), shape...)
		bl := buildWithEdges(a, bs)
		if got := bl.EdgeSize(); got != want {
			t.Errorf("shape %v: EdgeSize = %d, want %d as without the extent-1 dimensions", shape, got, want)
		}
		checkEdgesFresh(t, bl, fmt.Sprintf("shape %v", shape))
		r := ndarray.Region{{Lo: 3, Hi: 200}, {Lo: 17, Hi: 250}}
		for len(r) < len(shape) {
			r = append(r, ndarray.Range{Lo: 0, Hi: 0})
		}
		if got, want := bl.Sum(r, nil), naive.SumInt64(a, r, nil); got != want {
			t.Errorf("shape %v: Sum(%v) = %d, naive %d", shape, r, got, want)
		}
	}
}

// TestEdgeBuildParallelMatchesSequential: the one contraction walk fills
// every array with the same bits whether one worker runs it or eight, for the
// int64 kernel and the generic one.
func TestEdgeBuildParallelMatchesSequential(t *testing.T) {
	prev := parallel.SetMaxWorkers(8)
	t.Cleanup(func() { parallel.SetMaxWorkers(prev) })
	sequentially := func(build func()) {
		p := parallel.SetMaxWorkers(1)
		defer parallel.SetMaxWorkers(p)
		build()
	}
	g := workload.SeededGen(t, *blocked.SeedFlag, 6)
	for _, tc := range []struct{ shape, bs []int }{
		{[]int{130, 257}, []int{16, 8}},
		{[]int{61, 67, 33}, []int{4, 1, 5}},
		{[]int{9, 40, 7, 31}, []int{2, 8, 3, 4}},
	} {
		a := g.UniformCube(tc.shape, 1000)
		var seq *blocked.IntArray
		sequentially(func() { seq = buildWithEdges(a, tc.bs) })
		par := buildWithEdges(a, tc.bs)
		checkEdgesFresh(t, par, fmt.Sprintf("shape %v bs %v", tc.shape, tc.bs))
		if !slices.Equal(par.Packed().P().Data(), seq.Packed().P().Data()) {
			t.Fatalf("shape %v bs %v: packed differs between 8 workers and 1", tc.shape, tc.bs)
		}

		f := ndarray.New[float64](tc.shape...)
		for i := range f.Data() {
			f.Data()[i] = float64(a.Data()[i])/8 - 0.3
		}
		var fseq *blocked.Array[float64, algebra.FloatSum]
		sequentially(func() { fseq = blocked.BuildWithEdges[float64, algebra.FloatSum](f, tc.bs) })
		fpar := blocked.BuildWithEdges[float64, algebra.FloatSum](f, tc.bs)
		if !slices.Equal(fpar.Packed().P().Data(), blocked.BuildDims[float64, algebra.FloatSum](f, tc.bs).Packed().P().Data()) {
			t.Fatalf("shape %v bs %v: float packed differs between the edge build and the paper's", tc.shape, tc.bs)
		}
		for keep, e := range fpar.Edges() {
			if !slices.Equal(e.Data(), fseq.Edges()[keep].Data()) {
				t.Fatalf("shape %v bs %v: float edge array %b differs between 8 workers and 1", tc.shape, tc.bs, keep)
			}
		}
	}
}

// TestEdgeArraysCutAccesses is the counting gate: on a 1024² cube at b = 32,
// over the benchmark's 16 pairs of query sides, a sum reads at most one
// twelfth of what the paper's structure reads (the strips shrink 32-fold in
// their edge arrays, and each corner, aligned in no dimension, is planned
// per dimension: a 28×28 corner is one packed sum, 8 edge entries and 16
// cells instead of 4 lookups and 240 cells), and a commit of k deltas writes
// k entries in each of the 2^d − 2 edge arrays and nothing else new.
func TestEdgeArraysCutAccesses(t *testing.T) {
	const n, b = 1024, 32
	g := workload.New(41)
	shape := []int{n, n}
	a := g.UniformCube(shape, 1000)
	paper := blocked.BuildInt(a.Clone(), b)
	edged := buildWithEdges(a, []int{b, b})
	if got, want := edged.EdgeSize(), 2*n*n/b; got != want {
		t.Fatalf("EdgeSize = %d, want 2·N/b = %d", got, want)
	}
	sides := []int{n / 16, n / 8, n / 4, n / 2}
	var cp, ce metrics.Counter
	const sums = 16 * 16
	for i := 0; i < sums; i++ {
		r := g.FixedSizeRegion(shape, []int{sides[i%4], sides[i/4%4]})
		if got, want := edged.Sum(r, &ce), paper.Sum(r, &cp); got != want {
			t.Fatalf("Sum(%v) = %d with edge arrays, %d without", r, got, want)
		}
	}
	t.Logf("accesses per sum: %d with edge arrays (%d cells), %d without: 1/%.2f",
		ce.Total()/sums, ce.Cells/sums, cp.Total()/sums, float64(cp.Total())/float64(ce.Total()))
	if ce.Total() > cp.Total()/12 {
		t.Errorf("%d accesses per sum with edge arrays, %d without: want at most one twelfth",
			ce.Total()/sums, cp.Total()/sums)
	}

	const k = 16
	var ups []batchsum.IntUpdate
	for _, u := range g.Updates(shape, k, 100) {
		ups = append(ups, batchsum.IntUpdate{Coords: u.Coords, Delta: u.Delta})
	}
	cp, ce = metrics.Counter{}, metrics.Counter{}
	batchsum.ApplyBlockedInt(paper, ups, &cp)
	batchsum.ApplyBlockedInt(edged, ups, &ce)
	if ce.Cells != cp.Cells || ce.Aux-cp.Aux != k*(1<<2-2) {
		t.Errorf("a commit of %d deltas costs %v with edge arrays, %v without: want %d more Aux writes and the same cells",
			k, &ce, &cp, k*(1<<2-2))
	}
}

// TestEdgeStripsAreRuns: every edge array stores the dimensions it keeps
// outermost and those it contracts innermost, each group ascending, so its
// stride-1 axis is a contracted dimension and a boundary strip, thin in the
// kept dimensions, is a few runs of adjacent entries. In 2-d the array
// keeping dimension 1 is [n1][⌈n0/b0⌉]. Each array still holds the
// contraction of the cells, before and after a batch (checkEdgesFresh).
func TestEdgeStripsAreRuns(t *testing.T) {
	g := workload.SeededGen(t, *blocked.SeedFlag, 7)
	for _, tc := range []struct{ shape, bs []int }{
		{[]int{64, 96}, []int{8, 8}},
		{[]int{33, 41, 17}, []int{4, 5, 3}},
		{[]int{9, 12, 7, 10}, []int{2, 3, 2, 4}},
		{[]int{20, 1, 30}, []int{4, 4, 1}},
	} {
		what := fmt.Sprintf("shape %v bs %v", tc.shape, tc.bs)
		bl := buildWithEdges(g.UniformCube(tc.shape, 1000), tc.bs)
		orders := bl.EdgeOrders()
		if len(orders) == 0 && len(tc.shape) > 1 && tc.shape[1] > 1 {
			t.Fatalf("%s: no edge arrays", what)
		}
		for keep, order := range orders {
			var want []int
			for _, kept := range []bool{true, false} {
				for j := range tc.shape {
					if (keep&(1<<j) != 0) == kept {
						want = append(want, j)
					}
				}
			}
			if !slices.Equal(order, want) {
				t.Errorf("%s: the edge array keeping %b stores its dimensions in the order %v, want %v", what, keep, order, want)
			}
			if inner := order[len(order)-1]; keep&(1<<inner) != 0 {
				t.Errorf("%s: the edge array keeping %b has the kept dimension %d as its stride-1 axis", what, keep, inner)
			}
		}
		checkEdgesFresh(t, bl, what)
		var ups []batchsum.IntUpdate
		for _, u := range g.Updates(tc.shape, 12, 50) {
			ups = append(ups, batchsum.IntUpdate{Coords: u.Coords, Delta: u.Delta})
		}
		batchsum.ApplyBlockedInt(bl, ups, nil)
		checkEdgesFresh(t, bl, what+" after a batch")
	}
	if got := buildWithEdges(ndarray.New[int64](64, 96), []int{8, 8}).EdgeOrders()[0b10]; !slices.Equal(got, []int{1, 0}) {
		t.Errorf("2-d: the array keeping dimension 1 stores %v, want [1 0]: [n1][⌈n0/b0⌉]", got)
	}
}
