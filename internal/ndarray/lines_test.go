package ndarray

import (
	"slices"
	"testing"

	"rangecube/internal/parallel"
)

// collectOffsets lists a region's flat offsets via the per-cell iterator,
// the ground truth for the line decomposition.
func collectOffsets(a *Array[int64], r Region) []int {
	var want []int
	ForEachOffset(a, r, func(off int) { want = append(want, off) })
	return want
}

func TestLinesMatchForEachOffset(t *testing.T) {
	cases := []struct {
		shape []int
		r     Region
	}{
		{[]int{10}, Reg(0, 9)},
		{[]int{10}, Reg(3, 7)},
		{[]int{6, 7}, Reg(0, 5, 0, 6)},
		{[]int{6, 7}, Reg(1, 4, 2, 5)},
		{[]int{6, 7}, Reg(2, 2, 0, 6)},
		{[]int{4, 5, 6}, Reg(1, 3, 0, 4, 2, 5)},
		{[]int{3, 4, 5, 2}, Reg(0, 2, 1, 3, 2, 4, 0, 1)},
		{[]int{6, 7}, Reg(4, 2, 0, 6)}, // empty
	}
	for _, tc := range cases {
		a := New[int64](tc.shape...)
		for axis := 0; axis < a.Dims(); axis++ {
			ls := LinesOf(a, tc.r, axis)
			var got []int
			ls.ForEach(0, ls.Count(), func(ln Line) {
				if axis == a.Dims()-1 && ln.Stride != 1 {
					t.Fatalf("innermost stride = %d, want 1", ln.Stride)
				}
				for i := 0; i < ln.Len; i++ {
					got = append(got, ln.Off+i*ln.Stride)
				}
			})
			want := collectOffsets(a, tc.r)
			if len(got) != len(want) {
				t.Fatalf("shape %v region %v axis %d: %d offsets via lines, %d via cells", tc.shape, tc.r, axis, len(got), len(want))
			}
			seen := make(map[int]bool, len(got))
			for _, o := range got {
				if seen[o] {
					t.Fatalf("shape %v region %v axis %d: offset %d visited twice", tc.shape, tc.r, axis, o)
				}
				seen[o] = true
			}
			for _, o := range want {
				if !seen[o] {
					t.Fatalf("shape %v region %v axis %d: offset %d missing", tc.shape, tc.r, axis, o)
				}
			}
			// Innermost-axis lines must come out contiguous and in storage order.
			if axis == a.Dims()-1 {
				for i, o := range got {
					if o != want[i] {
						t.Fatalf("shape %v region %v: innermost lines out of storage order at %d", tc.shape, tc.r, i)
					}
				}
			}
		}
	}
}

// TestLinesChunksMatchForEachOffset checks that ForEach along any axis, over
// any split of the runs into two chunks, visits the cells ForEachOffset
// does, in the same order as one unsplit sweep.
func TestLinesChunksMatchForEachOffset(t *testing.T) {
	a := New[int64](5, 6, 7)
	r := Reg(1, 4, 0, 5, 2, 6)
	want := collectOffsets(a, r)
	for axis := range a.Dims() {
		ls := LinesOf(a, r, axis)
		sweep := func(lo, mid, hi int) []int {
			var got []int
			visit := func(ln Line) {
				for i := 0; i < ln.Len; i++ {
					got = append(got, ln.Off+i*ln.Stride)
				}
			}
			ls.ForEach(lo, mid, visit)
			ls.ForEach(mid, hi, visit)
			return got
		}
		whole := sweep(0, 0, ls.Count())
		sorted := slices.Clone(whole)
		slices.Sort(sorted)
		if !slices.Equal(sorted, want) {
			t.Fatalf("axis %d: ForEach visits %v, ForEachOffset %v", axis, sorted, want)
		}
		for mid := 1; mid < ls.Count(); mid++ {
			if got := sweep(0, mid, ls.Count()); !slices.Equal(got, whole) {
				t.Fatalf("axis %d: chunks split at %d visit %v, one sweep %v", axis, mid, got, whole)
			}
		}
	}
}

func TestLinesValidation(t *testing.T) {
	a := New[int64](4, 5)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("dim mismatch", func() { LinesOf(a, Reg(0, 3), 0) })
	mustPanic("out of bounds", func() { LinesOf(a, Reg(0, 3, 0, 5), 1) })
	mustPanic("bad axis", func() { LinesOf(a, Reg(0, 3, 0, 4), 2) })
	if n := LinesOf(a, Reg(2, 1, 0, 4), 0).Count(); n != 0 {
		t.Fatalf("empty region decomposed into %d lines, want 0", n)
	}
}

// TestContractSlabsCoverage checks the shared contraction driver folds
// every input cell into exactly its block's slot, sequentially and with
// forced parallelism.
func TestContractSlabsCoverage(t *testing.T) {
	cases := []struct {
		shape, bs []int
	}{
		{[]int{13}, []int{4}},
		{[]int{12, 10}, []int{5, 3}},
		{[]int{7, 9, 11}, []int{2, 3, 4}},
		{[]int{6, 8}, []int{1, 8}},
	}
	for _, workers := range []int{1, 8} {
		prev := parallel.SetMaxWorkers(workers)
		for _, tc := range cases {
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
			// Every contracted slot must have received exactly its block volume.
			c.Bounds().ForEach(func(k []int) {
				wantVol := 1
				for j, kj := range k {
					lo, hi := kj*tc.bs[j], min((kj+1)*tc.bs[j], tc.shape[j])
					wantVol *= hi - lo
				}
				if got := c.At(k...); got != int64(wantVol) {
					t.Fatalf("workers=%d shape %v bs %v: slot %v folded %d cells, want %d", workers, tc.shape, tc.bs, k, got, wantVol)
				}
			})
		}
		parallel.SetMaxWorkers(prev)
	}
}

// TestFromSliceSharesData confirms FromSlice wraps without copying and
// without allocating a throwaway backing array.
func TestFromSliceSharesData(t *testing.T) {
	data := []int64{1, 2, 3, 4, 5, 6}
	a := FromSlice(data, 2, 3)
	data[4] = 99
	if a.At(1, 1) != 99 {
		t.Fatal("FromSlice copied the data instead of wrapping it")
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = FromSlice(data, 2, 3)
	})
	// The Array struct plus its small shape/strides slices — crucially no
	// N-cell backing array (which New would add as one more, and a much
	// larger, allocation).
	if allocs > 4 {
		t.Fatalf("FromSlice did %.0f allocations, want ≤ 4 (no throwaway backing array)", allocs)
	}
}
