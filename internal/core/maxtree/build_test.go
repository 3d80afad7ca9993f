package maxtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
	"rangecube/internal/workload"
)

// buildReference is build over contractReference: the level walk the
// branch-free kernel replaced, kept as the oracle its trees must equal bit
// for bit.
func buildReference[T cmp.Ordered](a *ndarray.Array[T], b int, min bool) *Tree[T] {
	t := &Tree[T]{a: a, b: b, min: min}
	prevVals, prevOffs := a, []int(nil)
	for slices.Max(prevVals.Shape()) > 1 {
		cur := contractReference(t, prevVals, prevOffs)
		t.levels = append(t.levels, cur)
		prevVals, prevOffs = cur.vals, cur.offs
	}
	return t
}

// contractReference is the per-cell walk contract used before the
// branch-free kernel, kept verbatim. It builds the next level from the
// previous one: every b×...×b block of the previous grid is reduced to its
// best entry. The walk is
// line-oriented and fanned out across the worker pool by slabs of the
// contracted leading dimension (disjoint output nodes per worker); within a
// slab cells are still visited in storage order, so ties resolve exactly as
// in a sequential walk — the first candidate in storage order wins. A nil
// prevOffs means prevVals is the cube itself (entry i sits at cube offset i).
func contractReference[T cmp.Ordered](t *Tree[T], prevVals *ndarray.Array[T], prevOffs []int) level[T] {
	b := t.b
	shape := prevVals.Shape()
	nshape := make([]int, len(shape))
	bs := make([]int, len(shape))
	for i, n := range shape {
		nshape[i] = (n + b - 1) / b
		bs[i] = b
	}
	vals := ndarray.New[T](nshape...)
	offs := make([]int, vals.Size())
	seen := make([]bool, vals.Size())
	vdata := vals.Data()
	data := prevVals.Data()
	ndarray.ContractSlabs(prevVals, bs, vals.Strides(), func(off, lo, hi, cbase int) {
		for x := lo; x < hi; {
			q := x / b
			end := min((q+1)*b, hi)
			slot := cbase + q
			v, o, sn := vdata[slot], offs[slot], seen[slot]
			for ; x < end; x++ {
				if !sn || t.better(data[off+x], v) {
					v, o, sn = data[off+x], off+x, true
					if prevOffs != nil {
						o = prevOffs[off+x]
					}
				}
			}
			vdata[slot], offs[slot], seen[slot] = v, o, sn
		}
	})
	return level[T]{vals: vals, offs: offs}
}

// diffLevels compares every level of got with want, values through bits so
// that NaN and -0 compare by representation; "" means bit-identical.
func diffLevels[T cmp.Ordered](got, want *Tree[T], bits func(T) uint64) string {
	if len(got.levels) != len(want.levels) {
		return fmt.Sprintf("%d levels, reference %d", len(got.levels), len(want.levels))
	}
	for li, w := range want.levels {
		g := got.levels[li]
		if !slices.Equal(g.vals.Shape(), w.vals.Shape()) {
			return fmt.Sprintf("level %d shape %v, reference %v", li+1, g.vals.Shape(), w.vals.Shape())
		}
		gv, wv := g.vals.Data(), w.vals.Data()
		for k := range wv {
			if bits(gv[k]) != bits(wv[k]) || g.offs[k] != w.offs[k] {
				return fmt.Sprintf("level %d node %d: %v at %d, reference %v at %d", li+1, k, gv[k], g.offs[k], wv[k], w.offs[k])
			}
		}
	}
	return ""
}

func int64Bits(v int64) uint64 { return uint64(v) }

// checkMatchesReference builds a's max and min trees at fanout b with both
// walks and fails on the first node where they differ.
func checkMatchesReference[T cmp.Ordered](t *testing.T, a *ndarray.Array[T], b int, bits func(T) uint64) {
	t.Helper()
	for _, min := range []bool{false, true} {
		if msg := diffLevels(build(a, b, min), buildReference(a, b, min), bits); msg != "" {
			t.Fatalf("shape %v b=%d min=%v: %s", a.Shape(), b, min, msg)
		}
	}
}

// TestBuildMatchesReference holds the level kernel to the walk it replaced:
// every level's values and argmax offsets, bit for bit, at d = 1..4 with
// ragged extents (the large shapes pass the worker pool's grain, the small
// ones hold extent-1 dimensions), fanouts 2..5, values from nearly all ties
// to nearly none, float cubes holding NaN, ±0 and ±Inf, on one worker and
// on eight.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag))
	t.Logf("seed %d", *seedFlag)
	shapes := [][]int{{40001}, {211, 197}, {37, 35, 33}, {17, 15, 13, 12}, {1}, {7, 1}, {5, 1, 9}, {3, 2, 1, 4}}
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	for _, workers := range []int{1, 8} {
		prev := parallel.SetMaxWorkers(workers)
		t.Cleanup(func() { parallel.SetMaxWorkers(prev) })
		t.Logf("workers %d", workers)
		for _, shape := range shapes {
			for _, hi := range []int64{1, 50, 1 << 40} {
				a := ndarray.New[int64](shape...)
				for i := range a.Data() {
					a.Data()[i] = rng.Int63n(hi + 1)
				}
				for b := 2; b <= 5; b++ {
					checkMatchesReference(t, a, b, int64Bits)
				}
			}
			f := ndarray.New[float64](shape...)
			for i := range f.Data() {
				f.Data()[i] = float64(rng.Intn(5) - 2)
				if rng.Intn(3) == 0 {
					f.Data()[i] = specials[rng.Intn(len(specials))]
				}
			}
			for b := 2; b <= 5; b++ {
				checkMatchesReference(t, f, b, math.Float64bits)
			}
		}
	}
}

// BenchmarkBuild prices one Build and one BuildMin per cube cell at the
// server's fanout, on a cube that fits in cache and on scan-large's.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		a := workload.New(1).UniformCube([]int{n, n}, 1<<20)
		for _, bld := range []struct {
			name  string
			build func(*ndarray.Array[int64], int) *Tree[int64]
		}{{"Build", Build[int64]}, {"BuildMin", BuildMin[int64]}} {
			b.Run(fmt.Sprintf("%s/%d", bld.name, n), func(b *testing.B) {
				for range b.N {
					bld.build(a, 4)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*a.Size()), "ns/cell")
			})
		}
	}
}
