package ndarray

import (
	"testing"

	"rangecube/internal/parallel"
)

// TestLinesEdgeRegions pins the degenerate geometries the kernels must
// survive: empty regions (in any dimension), single-cell regions,
// full-array regions, and d=1 arrays, across every decomposition axis.
func TestLinesEdgeRegions(t *testing.T) {
	cases := []struct {
		name      string
		shape     []int
		r         Region
		wantCells int
	}{
		{"d1 empty", []int{5}, Reg(3, 2), 0},
		{"d1 single", []int{5}, Reg(4, 4), 1},
		{"d1 full", []int{5}, Reg(0, 4), 5},
		{"d1 degenerate extent-1 full", []int{1}, Reg(0, 0), 1},
		{"d2 empty middle dim", []int{3, 4}, Reg(0, 2, 2, 1), 0},
		{"d2 empty leading dim", []int{3, 4}, Reg(1, 0, 0, 3), 0},
		{"d2 single", []int{3, 4}, Reg(2, 2, 3, 3), 1},
		{"d2 full", []int{3, 4}, Reg(0, 2, 0, 3), 12},
		{"d3 all-extent-1 full", []int{1, 1, 1}, Reg(0, 0, 0, 0, 0, 0), 1},
		{"d3 extent-1 middle, full", []int{3, 1, 4}, Reg(0, 2, 0, 0, 0, 3), 12},
		{"d3 extent-1 middle, empty there", []int{3, 1, 4}, Reg(0, 2, 0, -1, 0, 3), 0},
		{"d4 single deep", []int{2, 3, 1, 2}, Reg(1, 1, 2, 2, 0, 0, 1, 1), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New[int64](tc.shape...)
			want := collectOffsets(a, tc.r)
			if len(want) != tc.wantCells {
				t.Fatalf("region %v has %d cells, case expects %d", tc.r, len(want), tc.wantCells)
			}
			for axis := 0; axis < a.Dims(); axis++ {
				ls := LinesOf(a, tc.r, axis)
				if tc.wantCells == 0 {
					if ls.Count() != 0 {
						t.Fatalf("axis %d: empty region decomposed into %d lines", axis, ls.Count())
					}
					ls.ForEach(0, ls.Count(), func(Line) { t.Fatal("ForEach visited a line of an empty region") })
					continue
				}
				if got := ls.Count() * ls.Len(); got != tc.wantCells {
					t.Fatalf("axis %d: Count*Len = %d*%d = %d, want %d cells", axis, ls.Count(), ls.Len(), got, tc.wantCells)
				}
				var got []int
				ls.ForEach(0, ls.Count(), func(ln Line) {
					for i := 0; i < ln.Len; i++ {
						got = append(got, ln.Off+i*ln.Stride)
					}
				})
				seen := make(map[int]bool, len(got))
				for _, o := range got {
					seen[o] = true
				}
				for _, o := range want {
					if !seen[o] {
						t.Fatalf("axis %d: offset %d missing from line sweep", axis, o)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("axis %d: line sweep yielded %d offsets, want %d", axis, len(got), len(want))
				}
				// Single-cell regions decompose into exactly one length-1 run
				// whatever the axis.
				if tc.wantCells == 1 && (ls.Count() != 1 || ls.Len() != 1 || got[0] != want[0]) {
					t.Fatalf("axis %d: single cell gave Count=%d Len=%d Off=%d, want 1/1/%d",
						axis, ls.Count(), ls.Len(), got[0], want[0])
				}
			}
		})
	}
}

// TestIncrEdgeShapes checks the row-major odometer on degenerate shapes:
// the wrap signal must fire exactly once, after visiting each cell exactly
// once, including when every extent is 1 (a single step wraps).
func TestIncrEdgeShapes(t *testing.T) {
	shapes := [][]int{
		{1},
		{4},
		{1, 1},
		{1, 1, 1},
		{3, 1, 4},
		{1, 5},
		{2, 1, 1, 2},
	}
	for _, shape := range shapes {
		a := New[int64](shape...)
		coords := make([]int, len(shape))
		steps := 0
		for {
			a.Data()[a.Offset(coords...)]++
			steps++
			if steps > a.Size() {
				t.Fatalf("shape %v: odometer did not wrap after %d steps", shape, a.Size())
			}
			if Incr(coords, shape) {
				break
			}
		}
		if steps != a.Size() {
			t.Fatalf("shape %v: wrapped after %d steps, want %d", shape, steps, a.Size())
		}
		for i, v := range a.Data() {
			if v != 1 {
				t.Fatalf("shape %v: cell %d visited %d times", shape, i, v)
			}
		}
		for _, c := range coords {
			if c != 0 {
				t.Fatalf("shape %v: odometer wrapped to %v, want origin", shape, coords)
			}
		}
	}
}

// TestContractSlabsEdgeGeometries drives the contraction walk through the
// geometries the blocked engines hit at the margins: block size 1
// (contraction is the identity shape), block covering a whole dimension
// (single contracted slot), extent-1 dimensions, and d=1 with a block
// larger than the array. Each input cell must fold into exactly its
// block's slot, sequentially and under forced parallelism.
func TestContractSlabsEdgeGeometries(t *testing.T) {
	cases := []struct {
		name      string
		shape, bs []int
	}{
		{"d1 block of 1", []int{6}, []int{1}},
		{"d1 block covers all", []int{6}, []int{6}},
		{"d1 block exceeds array", []int{3}, []int{7}},
		{"d1 single cell", []int{1}, []int{1}},
		{"d2 identity blocks", []int{3, 4}, []int{1, 1}},
		{"d2 one block total", []int{3, 4}, []int{3, 4}},
		{"d2 extent-1 leading", []int{1, 5}, []int{1, 2}},
		{"d3 extent-1 middle", []int{3, 1, 4}, []int{2, 1, 3}},
		{"d3 all extent-1", []int{1, 1, 1}, []int{1, 1, 1}},
	}
	for _, workers := range []int{1, 8} {
		prev := parallel.SetMaxWorkers(workers)
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				a := New[int64](tc.shape...)
				cshape := make([]int, len(tc.shape))
				for i, n := range tc.shape {
					cshape[i] = (n + tc.bs[i] - 1) / tc.bs[i]
				}
				c := New[int64](cshape...)
				bLast := tc.bs[len(tc.bs)-1]
				ContractSlabs(a, tc.bs, c.Strides(), func(off, lo, hi, cbase int) {
					for x := lo; x < hi; x++ {
						c.Data()[cbase+x/bLast]++
					}
				})
				c.Bounds().ForEach(func(k []int) {
					wantVol := 1
					for j, kj := range k {
						lo, hi := kj*tc.bs[j], min((kj+1)*tc.bs[j], tc.shape[j])
						wantVol *= hi - lo
					}
					if got := c.At(k...); got != int64(wantVol) {
						t.Fatalf("workers=%d: slot %v folded %d cells, want %d", workers, k, got, wantVol)
					}
				})
			})
		}
		parallel.SetMaxWorkers(prev)
	}
}

// TestContractSlabsValidation pins the argument contract: mismatched block
// or stride arity must panic rather than silently misfold.
func TestContractSlabsValidation(t *testing.T) {
	a := New[int64](4, 4)
	for _, tc := range []struct {
		name         string
		bs, cstrides []int
	}{
		{"short bs", []int{2}, []int{2, 1}},
		{"short cstrides", []int{2, 2}, []int{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			ContractSlabs(a, tc.bs, tc.cstrides, func(int, int, int, int) {})
		}()
	}
}
