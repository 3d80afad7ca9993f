package maxtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rangecube/internal/metrics"
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

// checkMatchesReference builds a's max and min trees at fanout b, one
// walk each, and fails on the first node where they differ from the
// reference walk's.
func checkMatchesReference[T cmp.Ordered](t *testing.T, a *ndarray.Array[T], b int, bits func(T) uint64) {
	t.Helper()
	for _, min := range []bool{false, true} {
		got := Build(a, b)
		if min {
			got = BuildMin(a, b)
		}
		if msg := diffLevels(got, buildReference(a, b, min), bits); msg != "" {
			t.Fatalf("shape %v b=%d min=%v: %s", a.Shape(), b, min, msg)
		}
	}
}

// checkBothMatchesReference builds a's max and min trees at fanout b in one
// walk and fails on the first node, or the first of a few random regions'
// MaxIndex answers, where either differs from the reference's.
func checkBothMatchesReference[T cmp.Ordered](t *testing.T, rng *rand.Rand, a *ndarray.Array[T], b int, bits func(T) uint64) {
	t.Helper()
	mx, mn := BuildBoth(a, b)
	for _, got := range []*Tree[T]{mx, mn} {
		want := buildReference(a, b, got.min)
		if msg := diffLevels(got, want, bits); msg != "" {
			t.Fatalf("shape %v b=%d min=%v: %s", a.Shape(), b, got.min, msg)
		}
		for range 8 {
			r := make(ndarray.Region, a.Dims())
			for j, n := range a.Shape() {
				lo := rng.Intn(n)
				r[j] = ndarray.Range{Lo: lo, Hi: lo + rng.Intn(n-lo)}
			}
			var gc, wc metrics.Counter
			gotOff, gotVal, _ := got.MaxIndex(r, &gc)
			wantOff, wantVal, _ := want.MaxIndex(r, &wc)
			if gotOff != wantOff || bits(gotVal) != bits(wantVal) || gc != wc {
				t.Fatalf("shape %v b=%d min=%v region %v: MaxIndex %v at %d (%+v), reference %v at %d (%+v)", a.Shape(), b, got.min, r, gotVal, gotOff, gc, wantVal, wantOff, wc)
			}
		}
	}
}

// buildGrid runs checkInt and checkFloat over the trees' test grid: d =
// 1..4 with ragged extents (the large shapes pass the worker pool's grain,
// the small ones hold extent-1 dimensions), fanouts 2..5, int values from
// nearly all ties to nearly none, negative ones among them, and float cubes
// holding NaN, ±0 and ±Inf, on one worker and on eight.
func buildGrid(t *testing.T, checkInt func(*ndarray.Array[int64], int), checkFloat func(*ndarray.Array[float64], int)) {
	rng := rand.New(rand.NewSource(*seedFlag))
	t.Logf("seed %d", *seedFlag)
	shapes := [][]int{{40001}, {211, 197}, {37, 35, 33}, {17, 15, 13, 12}, {1}, {7, 1}, {5, 1, 9}, {3, 2, 1, 4}}
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	spans := [][2]int64{{0, 1}, {0, 50}, {0, 1 << 40}, {0, 2}, {-50, 50}, {-1 << 40, 1 << 40}}
	for _, workers := range []int{1, 8} {
		prev := parallel.SetMaxWorkers(workers)
		t.Cleanup(func() { parallel.SetMaxWorkers(prev) })
		t.Logf("workers %d", workers)
		for _, shape := range shapes {
			for _, span := range spans {
				a := ndarray.New[int64](shape...)
				for i := range a.Data() {
					a.Data()[i] = span[0] + rng.Int63n(span[1]-span[0]+1)
				}
				for b := 2; b <= 5; b++ {
					checkInt(a, b)
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
				checkFloat(f, b)
			}
		}
	}
}

// TestBuildMatchesReference holds Build's and BuildMin's level kernel to the
// walk it replaced: every level's values and argmax offsets, bit for bit,
// over buildGrid.
func TestBuildMatchesReference(t *testing.T) {
	buildGrid(t,
		func(a *ndarray.Array[int64], b int) { checkMatchesReference(t, a, b, int64Bits) },
		func(a *ndarray.Array[float64], b int) { checkMatchesReference(t, a, b, math.Float64bits) })
}

// TestBuildBothMatchesReference holds BuildBoth's one walk for two trees to
// the same reference over the same grid, and their MaxIndex answers and
// costs to the reference trees'.
func TestBuildBothMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag))
	buildGrid(t,
		func(a *ndarray.Array[int64], b int) { checkBothMatchesReference(t, rng, a, b, int64Bits) },
		func(a *ndarray.Array[float64], b int) { checkBothMatchesReference(t, rng, a, b, math.Float64bits) })
}

// BenchmarkBuild prices one Build, one BuildMin and one BuildBoth per cube
// cell at the server's fanout, on a cube that fits in cache and on
// scan-large's.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		a := workload.New(1).UniformCube([]int{n, n}, 1<<20)
		for _, bld := range []struct {
			name  string
			build func(*ndarray.Array[int64], int)
		}{
			{"Build", func(a *ndarray.Array[int64], b int) { Build(a, b) }},
			{"BuildMin", func(a *ndarray.Array[int64], b int) { BuildMin(a, b) }},
			{"Both", func(a *ndarray.Array[int64], b int) { BuildBoth(a, b) }},
		} {
			b.Run(fmt.Sprintf("%s/%d", bld.name, n), func(b *testing.B) {
				for range b.N {
					bld.build(a, 4)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*a.Size()), "ns/cell")
			})
		}
	}
}
