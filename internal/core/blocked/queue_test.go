package blocked_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/metrics"
	"rangecube/internal/workload"
)

// applyQueued drives bl the way a serving engine does: every delta through the
// queue, and a fold once the queue is full. It reports whether it folded.
func applyQueued(bl *blocked.IntArray, ups []batchsum.IntUpdate) bool {
	full := false
	for _, u := range ups {
		_, full = bl.ApplyQueued(u.Coords, u.Delta, nil)
	}
	if full {
		bl.Flush(nil)
	}
	return full
}

// TestQueuedApplyMatchesEager: for d = 1..3, uniform block sizes and mixed
// ones with b = 1 in one dimension, a structure whose packed half is queued
// and folded answers every Sum and SumBoundsContext — value, §11 bounds and
// counted accesses — exactly as one updated by ApplyBlocked, with its queue
// empty, part full and just folded; and after a Flush its packed array is a
// fresh build's over the same cells.
func TestQueuedApplyMatchesEager(t *testing.T) {
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
			cells := g.UniformCube(shape, 201)
			for i := range cells.Data() {
				cells.Data()[i] -= 100
			}
			eager := buildWithEdges(cells.Clone(), bs)
			queued := buildWithEdges(cells, bs)
			folds := 0
			for step := 0; step < 40; step++ {
				var ups []batchsum.IntUpdate
				for _, u := range g.Updates(shape, 1+rng.Intn(5), 150) {
					ups = append(ups, batchsum.IntUpdate{Coords: u.Coords, Delta: u.Delta})
				}
				ups = append(ups, batchsum.IntUpdate{Coords: ups[0].Coords, Delta: int64(rng.Intn(301) - 150)})
				batchsum.ApplyBlockedInt(eager, ups, nil)
				if applyQueued(queued, ups) {
					folds++
				}
				for q := 0; q < 6; q++ {
					r := g.UniformRegion(shape)
					var ce, cq metrics.Counter
					if got, want := queued.Sum(r, &cq), eager.Sum(r, &ce); got != want || cq != ce {
						t.Fatalf("%s step %d: queued Sum(%v) = %d at cost %v, eager %d at %v", what, step, r, got, &cq, want, &ce)
					}
					ce, cq = metrics.Counter{}, metrics.Counter{}
					v, lo, hi, err := blocked.SumBoundsContext(ctx, queued, r, &cq)
					wv, wlo, whi, _ := blocked.SumBoundsContext(ctx, eager, r, &ce)
					if err != nil || v != wv || lo != wlo || hi != whi || cq != ce {
						t.Fatalf("%s step %d: queued SumBoundsContext(%v) = %d in [%d,%d] at cost %v (err %v), eager %d in [%d,%d] at %v",
							what, step, r, v, lo, hi, &cq, err, wv, wlo, whi, &ce)
					}
				}
			}
			if folds == 0 {
				t.Fatalf("%s: 40 batches never filled the queue", what)
			}
			queued.Flush(nil)
			if !slices.Equal(queued.Cube().Data(), eager.Cube().Data()) {
				t.Fatalf("%s: the queued structure's cells diverged from the eager one's", what)
			}
			fresh := blocked.BuildIntDims(queued.Cube().Clone(), bs)
			if !slices.Equal(queued.Packed().P().Data(), fresh.Packed().P().Data()) {
				t.Fatalf("%s: after Flush packed is %v, a rebuild from the cells %v", what, queued.Packed().P().Data(), fresh.Packed().P().Data())
			}
			checkEdgesFresh(t, queued, what)
		}
	}
}
