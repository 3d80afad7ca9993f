package batchsum

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rangecube/internal/algebra"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
	"rangecube/internal/workload"
)

// points draws k random cells of shape as §5 updates, and as the sorted,
// distinct offsets and combined deltas prefixsum.AddPoints takes.
func points[T any, G algebra.Group[T]](rng *rand.Rand, shape []int, k int, delta func() T) ([]Update[T], []int, []T) {
	var g G
	a := ndarray.New[bool](shape...) // for offsets
	ups := make([]Update[T], k)
	combined := map[int]T{}
	for i := range ups {
		coords := make([]int, len(shape))
		for j, n := range shape {
			coords[j] = rng.Intn(n)
		}
		ups[i] = Update[T]{Coords: coords, Delta: delta()}
		off := a.Offset(coords...)
		if old, ok := combined[off]; ok {
			combined[off] = g.Combine(old, ups[i].Delta)
		} else {
			combined[off] = ups[i].Delta
		}
	}
	offs := make([]int, 0, len(combined))
	for off := range combined {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	deltas := make([]T, len(offs))
	for i, off := range offs {
		deltas[i] = combined[off]
	}
	return ups, offs, deltas
}

// FuzzAddPoints holds the fold kernel to the §5 region apply: for d = 1–4 and
// fuzzer-chosen shapes and points, prefixsum.AddPoints leaves P equal to Apply
// over the same points, under SUM and under XOR, and counts one write per
// entry at or after the first point; and on a P large enough to fork, a run
// on four workers equals a run on one.
func FuzzAddPoints(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(5))
	f.Add(int64(7), uint8(2), uint8(16))
	f.Add(int64(42), uint8(3), uint8(1))
	f.Add(int64(3), uint8(0), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, dims, k uint8) {
		d := 1 + int(dims%4)
		rng := rand.New(rand.NewSource(seed))
		shape := make([]int, d)
		for j := range shape {
			shape[j] = 1 + rng.Intn(9)
		}
		a := workload.New(seed).UniformCube(shape, 100)
		ups, offs, deltas := points[int64, algebra.IntSum](rng, shape, 1+int(k%40), func() int64 { return int64(rng.Intn(201) - 100) })
		want, got := prefixsum.BuildInt(a), prefixsum.BuildInt(a)
		ApplyInt(want, ups, nil)
		var c metrics.Counter
		got.AddPoints(offs, deltas, &c)
		if !slices.Equal(got.P().Data(), want.P().Data()) {
			t.Fatalf("shape %v, points %v: AddPoints gives P %v, Apply %v", shape, ups, got.P().Data(), want.P().Data())
		}
		if n := int64(a.Size() - offs[0]); c.Aux != n || c.Steps != n || c.Cells != 0 {
			t.Fatalf("shape %v, first point at %d: AddPoints counted %v, want %d aux and steps", shape, offs[0], c.String(), n)
		}

		x := ndarray.New[uint64](shape...)
		for i := range x.Data() {
			x.Data()[i] = rng.Uint64()
		}
		xups, xoffs, xdeltas := points[uint64, algebra.Xor](rng, shape, 1+int(k%40), rng.Uint64)
		xwant, xgot := prefixsum.Build[uint64, algebra.Xor](x), prefixsum.Build[uint64, algebra.Xor](x)
		Apply[uint64, algebra.Xor](xwant, xups, nil)
		xgot.AddPoints(xoffs, xdeltas, nil)
		if !slices.Equal(xgot.P().Data(), xwant.P().Data()) {
			t.Fatalf("shape %v, points %v: AddPoints under XOR gives P %v, Apply %v", shape, xups, xgot.P().Data(), xwant.P().Data())
		}

		side := int(math.Ceil(math.Pow(4*parallel.Grain, 1/float64(d))))
		for j := range shape {
			shape[j] = side + rng.Intn(5)
		}
		a = workload.New(seed).UniformCube(shape, 100)
		_, offs, deltas = points[int64, algebra.IntSum](rng, shape, 1+int(k%40), func() int64 { return int64(rng.Intn(201) - 100) })
		seq, par := prefixsum.BuildInt(a), prefixsum.BuildInt(a)
		prev := parallel.SetMaxWorkers(1)
		seq.AddPoints(offs, deltas, nil)
		parallel.SetMaxWorkers(4)
		par.AddPoints(offs, deltas, nil)
		parallel.SetMaxWorkers(prev)
		if !slices.Equal(par.P().Data(), seq.P().Data()) {
			t.Fatalf("shape %v: AddPoints on four workers differs from one", shape)
		}
	})
}

// BenchmarkFold prices the queued apply's fold against the eager commit it
// replaces, on one 1024² P:
//
//	go test -run '^$' -bench Fold -benchmem ./internal/core/batchsum
//
// AddPoints/k=1024 folds a full queue, 1,024 point deltas, in one pass;
// ApplyInt/k=16 is one 16-delta commit through Theorem 2's regions. A fold
// stands in for 64 such commits and should cost at most three.
func BenchmarkFold(b *testing.B) {
	g := workload.New(1)
	shape := []int{1024, 1024}
	ps := prefixsum.BuildInt(g.UniformCube(shape, 1000))
	rng := rand.New(rand.NewSource(1))
	delta := func() int64 { return int64(rng.Intn(201) - 100) }
	b.Run("AddPoints/k=1024", func(b *testing.B) {
		_, offs, deltas := points[int64, algebra.IntSum](rng, shape, 1024, delta)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range deltas {
				deltas[j] = -deltas[j] // keeps P bounded over b.N folds
			}
			ps.AddPoints(offs, deltas, nil)
		}
	})
	b.Run("ApplyInt/k=16", func(b *testing.B) {
		ups, _, _ := points[int64, algebra.IntSum](rng, shape, 16, delta)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range ups {
				ups[j].Delta = -ups[j].Delta
			}
			ApplyInt(ps, ups, nil)
		}
	})
}
