package blocked_test

import (
	"context"
	"math/rand"
	"testing"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/metrics"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
)

// FuzzBlockedSum drives the blocked algorithm with fuzzer-chosen geometry,
// built as the paper's structure and with edge arrays, through rounds of a
// query and a batch update, and verifies both against the naive scan. Both
// take their updates as a serving engine does, their packed half queued and
// folded (ApplyBlocked). The edge-built structure must also answer
// SumBoundsContext with the paper structure's §11 bounds and report no more
// accesses than it: the per-dimension plan only ever picks a cheaper reading
// of a region. Any mismatch or panic is a bug.
func FuzzBlockedSum(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(5), uint8(0), uint8(2), uint8(1), uint8(4))
	f.Add(int64(7), uint8(9), uint8(1), uint8(1), uint8(3), uint8(8), uint8(0), uint8(0))
	f.Add(int64(42), uint8(16), uint8(7), uint8(12), uint8(15), uint8(15), uint8(2), uint8(6))
	f.Add(int64(3), uint8(19), uint8(19), uint8(7), uint8(7), uint8(1), uint8(17), uint8(2)) // corners inside one block
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, seed int64, n0, n1, b0, b1, lo0, len0, lo1 uint8) {
		shape := []int{int(n0%20) + 1, int(n1%20) + 1}
		bs := []int{int(b0%8) + 1, int(b1%8) + 1}
		rng := rand.New(rand.NewSource(seed))
		a := ndarray.New[int64](shape...)
		a.Fill(func([]int) int64 { return int64(rng.Intn(201) - 100) })
		paper := blocked.BuildIntDims(a.Clone(), bs)
		edged := buildWithEdges(a.Clone(), bs)
		r := ndarray.Region{
			{Lo: int(lo0) % shape[0], Hi: 0},
			{Lo: int(lo1) % shape[1], Hi: 0},
		}
		r[0].Hi = r[0].Lo + int(len0)%(shape[0]-r[0].Lo)
		r[1].Hi = r[1].Lo + int(len0/2)%(shape[1]-r[1].Lo)
		for round := 0; round < 3; round++ {
			want := naive.SumInt64(a, r, nil)
			var cp metrics.Counter
			if got := paper.Sum(r, &cp); got != want {
				t.Fatalf("shape=%v bs=%v r=%v round %d: blocked %d != naive %d", shape, bs, r, round, got, want)
			}
			_, wantLo, wantHi, _ := blocked.SumBoundsContext(ctx, paper, r, nil)
			var c metrics.Counter
			v, lo, hi, err := blocked.SumBoundsContext(ctx, edged, r, &c)
			if err != nil || v != want || lo != wantLo || hi != wantHi {
				t.Fatalf("shape=%v bs=%v r=%v round %d: blocked with edge arrays %d in [%d,%d] (err %v), naive %d, paper bounds [%d,%d]",
					shape, bs, r, round, v, lo, hi, err, want, wantLo, wantHi)
			}
			if c.Total() > cp.Total() {
				t.Fatalf("shape=%v bs=%v r=%v round %d: blocked with edge arrays reads %v, the paper's structure %v", shape, bs, r, round, &c, &cp)
			}
			ups := make([]batchsum.IntUpdate, 1+rng.Intn(4))
			for i := range ups {
				ups[i] = batchsum.IntUpdate{Coords: []int{rng.Intn(shape[0]), rng.Intn(shape[1])}, Delta: int64(rng.Intn(201) - 100)}
				a.Set(a.At(ups[i].Coords...)+ups[i].Delta, ups[i].Coords...)
			}
			batchsum.ApplyBlockedInt(paper, ups, nil)
			batchsum.ApplyBlockedInt(edged, ups, nil)
			// The next round asks about a region that holds an updated cell.
			r = ndarray.Region{
				{Lo: rng.Intn(ups[0].Coords[0] + 1), Hi: ups[0].Coords[0] + rng.Intn(shape[0]-ups[0].Coords[0])},
				{Lo: rng.Intn(ups[0].Coords[1] + 1), Hi: ups[0].Coords[1] + rng.Intn(shape[1]-ups[0].Coords[1])},
			}
		}
	})
}
