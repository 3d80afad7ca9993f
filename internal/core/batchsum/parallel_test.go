package batchsum

import (
	"flag"
	"testing"

	"rangecube/internal/algebra"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
	"rangecube/internal/workload"
)

// seedFlag makes the randomized equivalence tests reproducible: the fixed
// default pins the historical workload, and failures log the seed.
var seedFlag = flag.Int64("seed", 13, "base seed for randomized parallel-equivalence tests")

// TestApplyParallelMatchesSequential proves the sharded region-application
// loop produces bit-identical prefix arrays and identical counter totals to
// a single-worker run, for batches large and small.
func TestApplyParallelMatchesSequential(t *testing.T) {
	prev := parallel.SetMaxWorkers(8)
	t.Cleanup(func() { parallel.SetMaxWorkers(prev) })
	g := workload.SeededGen(t, *seedFlag, 0)
	for _, k := range []int{1, 4, 33} {
		a := g.UniformCube([]int{97, 101}, 1000)
		raw := g.Updates(a.Shape(), k, 100)
		ups := make([]IntUpdate, len(raw))
		for i, u := range raw {
			ups[i] = IntUpdate{Coords: u.Coords, Delta: u.Delta}
		}
		seqPS := func() *prefixsum.IntArray {
			p := parallel.SetMaxWorkers(1)
			defer parallel.SetMaxWorkers(p)
			return prefixsum.BuildInt(a.Clone())
		}()
		parPS := prefixsum.BuildInt(a)
		var cs, cp metrics.Counter
		seqRegions := func() int {
			p := parallel.SetMaxWorkers(1)
			defer parallel.SetMaxWorkers(p)
			return ApplyInt(seqPS, ups, &cs)
		}()
		parRegions := ApplyInt(parPS, ups, &cp)
		if seqRegions != parRegions {
			t.Fatalf("k=%d: parallel used %d regions, sequential %d", k, parRegions, seqRegions)
		}
		if cs != cp {
			t.Fatalf("k=%d: parallel counter %v differs from sequential %v", k, cp.String(), cs.String())
		}
		for i, v := range parPS.P().Data() {
			if v != seqPS.P().Data()[i] {
				t.Fatalf("k=%d: P[%d] = %d parallel vs %d sequential", k, i, v, seqPS.P().Data()[i])
			}
		}
	}
}

// TestApplyGenericGroupParallel runs the batch update under a non-int64
// group (exercising the generic line kernels) with forced parallelism.
func TestApplyGenericGroupParallel(t *testing.T) {
	prev := parallel.SetMaxWorkers(8)
	t.Cleanup(func() { parallel.SetMaxWorkers(prev) })
	a := ndarray.New[uint64](65, 67)
	for i := range a.Data() {
		a.Data()[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	ps := prefixsum.Build[uint64, algebra.Xor](a.Clone())
	ups := []Update[uint64]{
		{Coords: []int{3, 5}, Delta: 0xdead},
		{Coords: []int{40, 60}, Delta: 0xbeef},
		{Coords: []int{64, 66}, Delta: 7},
	}
	Apply[uint64, algebra.Xor](ps, ups, nil)
	applyToCube[uint64, algebra.Xor](a, ups)
	want := prefixsum.Build[uint64, algebra.Xor](a)
	for i, v := range ps.P().Data() {
		if v != want.P().Data()[i] {
			t.Fatalf("P[%d] = %#x after batch update, want %#x (rebuild)", i, v, want.P().Data()[i])
		}
	}
}
