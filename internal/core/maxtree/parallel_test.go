package maxtree

import (
	"flag"
	"testing"

	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
	"rangecube/internal/workload"
)

// seedFlag makes the randomized equivalence tests reproducible: the fixed
// default pins the historical workload, and failures log the seed.
var seedFlag = flag.Int64("seed", 23, "base seed for randomized parallel-equivalence tests")

// TestParallelBuildMatchesSequential proves the slab-parallel level build
// answers every query identically to the single-worker build — including
// argmax offsets, whose tie-breaks depend on visit order — on distinct
// values, heavily tied values, and ragged shapes.
func TestParallelBuildMatchesSequential(t *testing.T) {
	prev := parallel.SetMaxWorkers(8)
	t.Cleanup(func() { parallel.SetMaxWorkers(prev) })
	g := workload.SeededGen(t, *seedFlag, 0)
	cubes := map[string]*ndarray.Array[int64]{
		"permutation": g.PermutationCube(4096),
		"uniform2d":   g.UniformCube([]int{130, 126}, 50), // many ties
		"tiny-domain": g.UniformCube([]int{9, 10, 11}, 2), // nearly all ties
	}
	for name, a := range cubes {
		for _, b := range []int{2, 8} {
			want := func() *Tree[int64] {
				p := parallel.SetMaxWorkers(1)
				defer parallel.SetMaxWorkers(p)
				return Build(a.Clone(), b)
			}()
			got := Build(a, b)
			if got.Nodes() != want.Nodes() || got.Height() != want.Height() {
				t.Fatalf("%s b=%d: tree shape differs (nodes %d vs %d)", name, b, got.Nodes(), want.Nodes())
			}
			for i := 0; i < 128; i++ {
				r := g.UniformRegion(a.Shape())
				gOff, gVal, gOK := got.MaxIndex(r, nil)
				wOff, wVal, wOK := want.MaxIndex(r, nil)
				if gOff != wOff || gVal != wVal || gOK != wOK {
					t.Fatalf("%s b=%d query %v: parallel (%d,%d,%v) vs sequential (%d,%d,%v)",
						name, b, r, gOff, gVal, gOK, wOff, wVal, wOK)
				}
			}
		}
	}
}

// TestParallelBuildMin checks the MIN twin under forced parallelism.
func TestParallelBuildMin(t *testing.T) {
	prev := parallel.SetMaxWorkers(8)
	t.Cleanup(func() { parallel.SetMaxWorkers(prev) })
	g := workload.SeededGen(t, *seedFlag, 6)
	a := g.UniformCube([]int{127, 65}, 1000)
	want := func() *Tree[int64] {
		p := parallel.SetMaxWorkers(1)
		defer parallel.SetMaxWorkers(p)
		return BuildMin(a.Clone(), 4)
	}()
	got := BuildMin(a, 4)
	for i := 0; i < 64; i++ {
		r := g.UniformRegion(a.Shape())
		gOff, gVal, _ := got.MaxIndex(r, nil)
		wOff, wVal, _ := want.MaxIndex(r, nil)
		if gOff != wOff || gVal != wVal {
			t.Fatalf("query %v: parallel min (%d,%d) vs sequential (%d,%d)", r, gOff, gVal, wOff, wVal)
		}
	}
}
