package persist

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
)

func randomCube(rng *rand.Rand) *ndarray.Array[int64] {
	d := 1 + rng.Intn(3)
	shape := make([]int, d)
	for i := range shape {
		shape[i] = 2 + rng.Intn(10)
	}
	a := ndarray.New[int64](shape...)
	a.Fill(func([]int) int64 { return int64(rng.Intn(500) - 250) })
	return a
}

func randomRegion(rng *rand.Rand, shape []int) ndarray.Region {
	r := make(ndarray.Region, len(shape))
	for i, n := range shape {
		lo := rng.Intn(n)
		r[i] = ndarray.Range{Lo: lo, Hi: lo + rng.Intn(n-lo)}
	}
	return r
}

// Property: prefix-sum indexes round-trip and answer identically.
func TestPrefixSumRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCube(rng)
		ps := prefixsum.BuildInt(a)
		var buf bytes.Buffer
		if err := WritePrefixSum(&buf, ps); err != nil {
			return false
		}
		got, err := ReadPrefixSum(&buf)
		if err != nil {
			return false
		}
		for q := 0; q < 6; q++ {
			r := randomRegion(rng, a.Shape())
			if got.Sum(r, nil) != ps.Sum(r, nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCube(rng)
	bs := make([]int, a.Dims())
	for i := range bs {
		bs[i] = 1 + rng.Intn(4)
	}
	bl := blocked.BuildIntDims(a, bs)
	var buf bytes.Buffer
	if err := WriteBlocked(&buf, bl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBlocked(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 30; q++ {
		r := randomRegion(rng, a.Shape())
		want := naive.SumInt64(a, r, nil)
		if got.Sum(r, nil) != want {
			t.Fatalf("restored blocked Sum(%v) = %d, want %d", r, got.Sum(r, nil), want)
		}
	}
	for i, b := range got.BlockSizes() {
		if b != bs[i] {
			t.Fatalf("BlockSizes = %v, want %v", got.BlockSizes(), bs)
		}
	}
}

// TestBlockedRoundTripKeepsQueuedDeltas: a blocked index holds its updates'
// packed half in a queue until enough blocks are queued, and the format has
// no queue, so WriteBlocked folds it first: one delta of 9 on a 64² cube at
// b = 4, queued and not folded, survives the round trip.
func TestBlockedRoundTripKeepsQueuedDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := ndarray.New[int64](64, 64)
	a.Fill(func([]int) int64 { return int64(rng.Intn(500) - 250) })
	bl := blocked.BuildInt(a, 4)
	if folded := batchsum.ApplyBlockedInt(bl, []batchsum.IntUpdate{{Coords: []int{21, 42}, Delta: 9}}, nil); folded != 0 {
		t.Fatalf("one delta folded %d blocks, want it queued", folded)
	}
	var buf bytes.Buffer
	if err := WriteBlocked(&buf, bl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBlocked(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []ndarray.Region{a.Bounds(), ndarray.Reg(20, 40, 40, 63), ndarray.Reg(0, 21, 0, 42)} {
		if g, w := got.Sum(r, nil), naive.SumInt64(a, r, nil); g != w {
			t.Fatalf("restored blocked Sum(%v) = %d, want %d", r, g, w)
		}
	}
}

func TestMaxTreeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomCube(rng)
	for _, isMin := range []bool{false, true} {
		var tr *maxtree.Tree[int64]
		if isMin {
			tr = maxtree.BuildMin(a, 3)
		} else {
			tr = maxtree.Build(a, 3)
		}
		var buf bytes.Buffer
		if err := WriteMaxTree(&buf, tr, tr.IsMin()); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMaxTree(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.IsMin() != isMin || got.Fanout() != 3 {
			t.Fatalf("restored flags: min=%v fanout=%d", got.IsMin(), got.Fanout())
		}
		for q := 0; q < 30; q++ {
			r := randomRegion(rng, a.Shape())
			_, v1, ok1 := tr.MaxIndex(r, nil)
			_, v2, ok2 := got.MaxIndex(r, nil)
			if ok1 != ok2 || v1 != v2 {
				t.Fatalf("restored tree disagrees on %v", r)
			}
		}
	}
}

func TestReadRejectsCorruptInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   {1, 2, 3, 4, 0, 0, 1},
		"short":       {0x42, 0x55, 0x43, 0x52, 1, 0}, // magic+version, no kind
		"wrong kind":  nil,                            // filled below
		"bad version": {0x42, 0x55, 0x43, 0x52, 9, 0, 1},
	}
	var buf bytes.Buffer
	ps := prefixsum.BuildInt(ndarray.FromSlice([]int64{1, 2, 3, 4}, 2, 2))
	if err := WritePrefixSum(&buf, ps); err != nil {
		t.Fatal(err)
	}
	cases["wrong kind"] = buf.Bytes()
	for name, data := range cases {
		if _, err := ReadBlocked(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadBlocked accepted corrupt input", name)
		}
	}
	// Truncated payload.
	full := buf.Bytes()
	if _, err := ReadPrefixSum(bytes.NewReader(full[:len(full)-4])); err == nil {
		t.Error("truncated payload accepted")
	}
	// Header claims absurd extents.
	bad := append([]byte(nil), full[:7]...)
	bad = append(bad, 2, 0, 0, 0) // 2 dims
	for i := 0; i < 16; i++ {
		bad = append(bad, 0xff) // gigantic extents
	}
	if _, err := ReadPrefixSum(bytes.NewReader(bad)); err == nil {
		t.Error("absurd extents accepted")
	}
}

func TestReadBlockedRejectsInconsistentGeometry(t *testing.T) {
	a := ndarray.FromSlice([]int64{1, 2, 3, 4, 5, 6}, 2, 3)
	bl := blocked.BuildInt(a, 2)
	var buf bytes.Buffer
	if err := WriteBlocked(&buf, bl); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the second block size (offset: 7-byte header + 4-byte count
	// + 8-byte first entry): ⌈3/3⌉ = 1 ≠ stored packed extent 2.
	data[19] = 3
	if _, err := ReadBlocked(bytes.NewReader(data)); err == nil {
		t.Fatal("inconsistent geometry accepted")
	}
}

// failingWriter errors after n bytes, exercising every write error path.
type failingWriter struct{ left int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, fmt.Errorf("disk full")
	}
	return n, nil
}

func TestWriteErrorsPropagate(t *testing.T) {
	a := ndarray.FromSlice([]int64{1, 2, 3, 4}, 2, 2)
	ps := prefixsum.BuildInt(a)
	bl := blocked.BuildInt(a, 2)
	tr := maxtree.Build(a, 2)
	// Sweep truncation points across the whole encoding of each kind.
	var full bytes.Buffer
	if err := WriteBlocked(&full, bl); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < full.Len(); n += 3 {
		if err := WritePrefixSum(&failingWriter{left: n}, ps); err == nil && n < 40 {
			t.Fatalf("WritePrefixSum with %d-byte budget did not fail", n)
		}
		if err := WriteBlocked(&failingWriter{left: n}, bl); err == nil {
			t.Fatalf("WriteBlocked with %d-byte budget did not fail", n)
		}
		if err := WriteMaxTree(&failingWriter{left: n}, tr, false); err == nil && n < 40 {
			t.Fatalf("WriteMaxTree with %d-byte budget did not fail", n)
		}
	}
}
