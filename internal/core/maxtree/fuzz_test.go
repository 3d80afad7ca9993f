package maxtree

import (
	"math/rand"
	"testing"

	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
)

// FuzzRangeMax drives the §6 tree with fuzzer-chosen geometry, data and a
// §7 batch update against the naive scan, and checks the build level by
// level against the reference walk. It was the only core engine
// without a fuzz target; the seed corpus encodes the shapes the
// conformance harness's shrinker converges to (degenerate extent-1
// dimensions, unaligned single-cell queries at the high boundary) plus the
// geometries the other fuzz targets start from.
func FuzzRangeMax(f *testing.F) {
	// Conformance-shrunk seeds: 2-cell cube with a boundary singleton
	// query, extent-1 middle dimension, block-edge straddles.
	f.Add(int64(1), uint8(2), uint8(1), uint8(2), uint8(1), uint8(0), uint8(1), uint8(0))
	f.Add(int64(5), uint8(4), uint8(1), uint8(2), uint8(3), uint8(3), uint8(0), uint8(2))
	f.Add(int64(9), uint8(9), uint8(9), uint8(3), uint8(2), uint8(7), uint8(1), uint8(5))
	f.Add(int64(42), uint8(16), uint8(7), uint8(4), uint8(15), uint8(2), uint8(6), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n0, n1, b, lo0, len0, lo1, nup uint8) {
		shape := []int{int(n0%20) + 1, int(n1%20) + 1}
		fanout := int(b%7) + 2
		rng := rand.New(rand.NewSource(seed))
		a := ndarray.New[int64](shape...)
		a.Fill(func([]int) int64 { return int64(rng.Intn(401) - 200) })
		tr := Build(a, fanout)
		if msg := diffLevels(tr, buildReference(a, fanout, false), int64Bits); msg != "" {
			t.Fatalf("shape=%v b=%d: build differs from the reference walk: %s", shape, fanout, msg)
		}
		twin := Build(a.Clone(), fanout) // repaired by a caller that writes the cube itself

		r := ndarray.Region{
			{Lo: int(lo0) % shape[0], Hi: 0},
			{Lo: int(lo1) % shape[1], Hi: 0},
		}
		r[0].Hi = r[0].Lo + int(len0)%(shape[0]-r[0].Lo)
		r[1].Hi = r[1].Lo + int(len0/3)%(shape[1]-r[1].Lo)

		checkAgainstNaive := func(stage string) {
			gotOff, gotVal, gotOK := tr.MaxIndex(r, nil)
			wantOff, wantVal, wantOK := naive.Max(tr.Cube(), r, nil)
			if gotOK != wantOK || (gotOK && gotVal != wantVal) {
				t.Fatalf("%s: shape=%v b=%d r=%v: tree (%d,%v) != naive (%d,%v)",
					stage, shape, fanout, r, gotVal, gotOK, wantVal, wantOK)
			}
			if gotOK && tr.Cube().Data()[gotOff] != gotVal {
				t.Fatalf("%s: reported offset %d holds %d, not the reported max %d",
					stage, gotOff, tr.Cube().Data()[gotOff], gotVal)
			}
			_ = wantOff // ties may resolve to any maximal cell (§2)
		}
		checkAgainstNaive("after build")

		// A §7 batch with increases, decreases (the tag = −1 rescan path)
		// and duplicate coordinates (last value wins).
		ups := make([]PointUpdate[int64], 0, int(nup%6)+1)
		for i := 0; i < cap(ups); i++ {
			ups = append(ups, PointUpdate[int64]{
				Coords: []int{rng.Intn(shape[0]), rng.Intn(shape[1])},
				Value:  int64(rng.Intn(801) - 400),
			})
		}
		if len(ups) > 1 {
			ups[len(ups)-1].Coords = append([]int(nil), ups[0].Coords...)
		}
		stats := tr.BatchUpdate(ups, nil)
		checkAgainstNaive("after batch update")
		if got := repairAsCaller(twin, ups); got != stats || !sameTree(tr, twin) {
			t.Fatalf("shape=%v b=%d ups=%v: Repair over a pre-written cube (stats %+v) left a different tree than BatchUpdate (stats %+v)",
				shape, fanout, ups, got, stats)
		}
	})
}
