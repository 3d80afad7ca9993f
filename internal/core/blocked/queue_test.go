package blocked_test

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rangecube/internal/algebra"
	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/workload"
)

// TestQueuedApplyMatchesEager: for d = 1..3, uniform block sizes and mixed
// ones with b = 1 in one dimension, a structure updated by ApplyBlocked — its
// packed half queued and folded as a serving engine updates it — answers every
// Sum and SumBoundsContext, value, §11 bounds and counted accesses, exactly as
// a fresh BuildWithEdges over the same cells does, with its queue empty, part
// full and just folded; and after a Flush its packed and edge arrays are that
// fresh build's. The int64 SUM reads its queue under a mask; every other group
// takes the generic branch, here XOR, whose answers are exact.
func TestQueuedApplyMatchesEager(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		queuedMatchesFresh[int64, algebra.IntSum](t, func(x int64) int64 { return x })
	})
	t.Run("xor", func(t *testing.T) {
		queuedMatchesFresh[uint64, algebra.Xor](t, func(x int64) uint64 { return uint64(x) })
	})
}

// queuedMatchesFresh is TestQueuedApplyMatchesEager for the group G, whose
// values of measures and deltas are of(x) for the int64 workload's x.
func queuedMatchesFresh[T cmp.Ordered, G algebra.Group[T]](t *testing.T, of func(int64) T) {
	var grp G
	g := workload.SeededGen(t, *blocked.SeedFlag, 8)
	rng := rand.New(rand.NewSource(*blocked.SeedFlag + 0x9e7e))
	ctx := context.Background()
	for d := 1; d <= 3; d++ {
		var cases [][]int
		for _, b := range []int{1, 2, 3} {
			bs := make([]int, d)
			for j := range bs {
				bs[j] = b
			}
			cases = append(cases, bs)
		}
		mixed := make([]int, d)
		for j := range mixed {
			mixed[j] = 2 + rng.Intn(4)
		}
		mixed[rng.Intn(d)] = 1
		cases = append(cases, mixed)
		for _, bs := range cases {
			shape := make([]int, d)
			for j := range shape {
				shape[j] = 3 + rng.Intn(30/d)
			}
			what := fmt.Sprintf("shape %v bs %v", shape, bs)
			mirror := ndarray.New[T](shape...)
			for i, x := range g.UniformCube(shape, 201).Data() {
				mirror.Data()[i] = of(x - 100)
			}
			queued := blocked.BuildWithEdges[T, G](mirror.Clone(), bs)
			folds := 0
			for step := 0; step < 40; step++ {
				var ups []batchsum.Update[T]
				for _, u := range g.Updates(shape, 1+rng.Intn(5), 150) {
					ups = append(ups, batchsum.Update[T]{Coords: u.Coords, Delta: of(u.Delta)})
				}
				ups = append(ups, batchsum.Update[T]{Coords: ups[0].Coords, Delta: of(int64(rng.Intn(301) - 150))})
				for _, u := range ups {
					mirror.Set(grp.Combine(mirror.At(u.Coords...), u.Delta), u.Coords...)
				}
				if batchsum.ApplyBlocked(queued, ups, nil) > 0 {
					folds++
				}
				if !slices.Equal(queued.Cube().Data(), mirror.Data()) {
					t.Fatalf("%s step %d: the queued structure's cells diverged from the mirror", what, step)
				}
				fresh := blocked.BuildWithEdges[T, G](mirror.Clone(), bs)
				for q := 0; q < 6; q++ {
					r := g.UniformRegion(shape)
					var cf, cq metrics.Counter
					if got, want := queued.Sum(r, &cq), fresh.Sum(r, &cf); got != want || cq != cf {
						t.Fatalf("%s step %d: queued Sum(%v) = %v at cost %v, a fresh build %v at %v", what, step, r, got, &cq, want, &cf)
					}
					cf, cq = metrics.Counter{}, metrics.Counter{}
					v, lo, hi, err := blocked.SumBoundsContext(ctx, queued, r, &cq)
					wv, wlo, whi, _ := blocked.SumBoundsContext(ctx, fresh, r, &cf)
					if err != nil || v != wv || lo != wlo || hi != whi || cq != cf {
						t.Fatalf("%s step %d: queued SumBoundsContext(%v) = %v in [%v,%v] at cost %v (err %v), a fresh build %v in [%v,%v] at %v",
							what, step, r, v, lo, hi, &cq, err, wv, wlo, whi, &cf)
					}
				}
			}
			if folds == 0 {
				t.Fatalf("%s: 40 batches never filled the queue", what)
			}
			queued.Flush(nil)
			fresh := blocked.BuildWithEdges[T, G](mirror.Clone(), bs)
			if !slices.Equal(queued.Packed().P().Data(), fresh.Packed().P().Data()) {
				t.Fatalf("%s: after Flush packed is %v, a rebuild from the cells %v", what, queued.Packed().P().Data(), fresh.Packed().P().Data())
			}
			for keep, e := range fresh.Edges() {
				if !slices.Equal(queued.Edges()[keep].Data(), e.Data()) {
					t.Fatalf("%s: the edge array keeping dimensions %b is not a rebuild's", what, keep)
				}
			}
			if len(queued.Edges()) != len(fresh.Edges()) {
				t.Fatalf("%s: %d edge arrays, a rebuild has %d", what, len(queued.Edges()), len(fresh.Edges()))
			}
		}
	}
}
