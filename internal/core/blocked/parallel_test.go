package blocked

import (
	"flag"
	"testing"

	"rangecube/internal/algebra"
	"rangecube/internal/parallel"
	"rangecube/internal/workload"

	"rangecube/internal/ndarray"
)

// seedFlag makes the randomized equivalence tests reproducible: the fixed
// default pins the historical workload, and failures log the seed.
var seedFlag = flag.Int64("seed", 17, "base seed for randomized parallel-equivalence tests")

// TestParallelBuildMatchesSequential proves the slab-parallel contraction
// plus parallel wrapped prefix pass produce a packed array bit-identical to
// the single-worker build, across dimensionalities, ragged extents and
// per-dimension block sizes (including b = 1).
func TestParallelBuildMatchesSequential(t *testing.T) {
	prev := parallel.SetMaxWorkers(8)
	t.Cleanup(func() { parallel.SetMaxWorkers(prev) })
	cases := []struct {
		shape []int
		bs    []int
	}{
		{[]int{500}, []int{7}},
		{[]int{128, 130}, []int{16, 16}},
		{[]int{61, 67}, []int{1, 8}},
		{[]int{17, 19, 23}, []int{4, 5, 4}},
		{[]int{3, 64, 5}, []int{2, 8, 2}},
	}
	g := workload.SeededGen(t, *seedFlag, 0)
	for _, tc := range cases {
		a := g.UniformCube(tc.shape, 1000)
		want := func() *IntArray {
			p := parallel.SetMaxWorkers(1)
			defer parallel.SetMaxWorkers(p)
			return BuildIntDims(a.Clone(), tc.bs)
		}()
		got := BuildIntDims(a, tc.bs)
		if gd, wd := got.Packed().P().Data(), want.Packed().P().Data(); len(gd) != len(wd) {
			t.Fatalf("shape %v bs %v: packed sizes differ", tc.shape, tc.bs)
		} else {
			for i := range gd {
				if gd[i] != wd[i] {
					t.Fatalf("shape %v bs %v: packed[%d] = %d parallel vs %d sequential", tc.shape, tc.bs, i, gd[i], wd[i])
				}
			}
		}
		for i := 0; i < 32; i++ {
			r := g.UniformRegion(tc.shape)
			if got.Sum(r, nil) != want.Sum(r, nil) {
				t.Fatalf("shape %v bs %v: query %v differs", tc.shape, tc.bs, r)
			}
		}
	}
}

// TestParallelBuildGenericGroup exercises the generic contraction kernel
// (no int64 fast path) under forced parallelism.
func TestParallelBuildGenericGroup(t *testing.T) {
	prev := parallel.SetMaxWorkers(8)
	t.Cleanup(func() { parallel.SetMaxWorkers(prev) })
	a := ndarray.New[float64](67, 71)
	for i := range a.Data() {
		a.Data()[i] = float64(i%13) / 8
	}
	want := func() *Array[float64, algebra.FloatSum] {
		p := parallel.SetMaxWorkers(1)
		defer parallel.SetMaxWorkers(p)
		return Build[float64, algebra.FloatSum](a.Clone(), 9)
	}()
	got := Build[float64, algebra.FloatSum](a, 9)
	for i, v := range got.Packed().P().Data() {
		if v != want.Packed().P().Data()[i] {
			t.Fatalf("packed[%d] = %v parallel vs %v sequential", i, v, want.Packed().P().Data()[i])
		}
	}
}
