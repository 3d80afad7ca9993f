package persist

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/ndarray"
)

// TestChecksumDetectsEveryBitFlip flips each bit of every envelope kind and
// requires the matching reader to reject the damaged bytes: the CRC32C
// trailer catches payload corruption, the header checks catch the rest.
func TestChecksumDetectsEveryBitFlip(t *testing.T) {
	a := ndarray.FromSlice([]int64{3, 1, 4, 1, 5, 9}, 2, 3)
	encode := map[string]struct {
		bytes []byte
		read  func([]byte) error
	}{}

	var buf bytes.Buffer
	if err := WritePrefixSum(&buf, prefixsum.BuildInt(a)); err != nil {
		t.Fatal(err)
	}
	encode["prefixsum"] = struct {
		bytes []byte
		read  func([]byte) error
	}{append([]byte(nil), buf.Bytes()...), func(b []byte) error {
		_, err := ReadPrefixSum(bytes.NewReader(b))
		return err
	}}

	buf.Reset()
	if err := WriteBlocked(&buf, blocked.BuildInt(a, 2)); err != nil {
		t.Fatal(err)
	}
	encode["blocked"] = struct {
		bytes []byte
		read  func([]byte) error
	}{append([]byte(nil), buf.Bytes()...), func(b []byte) error {
		_, err := ReadBlocked(bytes.NewReader(b))
		return err
	}}

	buf.Reset()
	if err := WriteMaxTree(&buf, maxtree.Build(a, 2), false); err != nil {
		t.Fatal(err)
	}
	encode["maxtree"] = struct {
		bytes []byte
		read  func([]byte) error
	}{append([]byte(nil), buf.Bytes()...), func(b []byte) error {
		_, err := ReadMaxTree(bytes.NewReader(b))
		return err
	}}

	buf.Reset()
	if err := WriteSnapshot(&buf, 7, a); err != nil {
		t.Fatal(err)
	}
	encode["snapshot"] = struct {
		bytes []byte
		read  func([]byte) error
	}{append([]byte(nil), buf.Bytes()...), func(b []byte) error {
		_, _, err := ReadSnapshot(bytes.NewReader(b))
		return err
	}}

	for name, e := range encode {
		if err := e.read(e.bytes); err != nil {
			t.Fatalf("%s: pristine envelope rejected: %v", name, err)
		}
		for off := range e.bytes {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte(nil), e.bytes...)
				bad[off] ^= 1 << bit
				if err := e.read(bad); err == nil {
					t.Fatalf("%s: flip of byte %d bit %d went undetected", name, off, bit)
				}
			}
		}
	}
}

// TestReadsVersion1WithoutChecksum proves back-compat: a version-1 envelope
// (no trailer) assembled with the low-level helpers still loads.
func TestReadsVersion1WithoutChecksum(t *testing.T) {
	a := ndarray.FromSlice([]int64{1, 2, 3, 4}, 2, 2)
	ps := prefixsum.BuildInt(a)
	var buf bytes.Buffer
	for _, v := range []any{magic, version1, KindPrefixSum} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	e := &encoder{w: &buf}
	e.array(ps.P(), ps.P().Bounds())
	if e.flush(); e.err != nil {
		t.Fatal(e.err)
	}
	got, err := ReadPrefixSum(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("version-1 envelope rejected: %v", err)
	}
	r := ndarray.Region{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}
	if got.Sum(r, nil) != ps.Sum(r, nil) {
		t.Fatal("version-1 round trip changed the answer")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	a := ndarray.FromSlice([]int64{-1, 0, 7, 42, 9, -3}, 3, 2)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, 99, a); err != nil {
		t.Fatal(err)
	}
	seq, cells, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 99 {
		t.Fatalf("seq = %d, want 99", seq)
	}
	if !slices.Equal(cells.Shape(), a.Shape()) || !slices.Equal(cells.Data(), a.Data()) {
		t.Fatal("cells differ after round trip")
	}
}

// TestSnapshotReadAllocatesItsCells bounds what decoding a 1024² snapshot
// allocates: at most 1.1× its cells into a fresh array when the input's
// length is known, which takes one allocation; at most 2.1× when it is not,
// into an array that doubles as the cells arrive; and under a tenth of them
// into an array given to decode into, whose shape the snapshot's must match.
// (Reading by binary.Read into 64K-cell chunks appended one by one allocated
// 7×.)
func TestSnapshotReadAllocatesItsCells(t *testing.T) {
	a := ndarray.New[int64](1024, 1024)
	for i := range a.Data() {
		a.Data()[i] = int64(i*7919) - 1<<40
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, 7, a); err != nil {
		t.Fatal(err)
	}
	read := func(size int64, into ...*ndarray.Array[int64]) float64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seq, cells, err := ReadSnapshotSized(bytes.NewReader(buf.Bytes()), size, into...)
		runtime.ReadMemStats(&after)
		if err != nil || seq != 7 || !slices.Equal(cells.Shape(), a.Shape()) || !slices.Equal(cells.Data(), a.Data()) {
			t.Fatalf("read seq %d, err %v, or cells that differ", seq, err)
		}
		if len(into) > 0 && cells != into[0] {
			t.Fatal("the cells were not decoded into the array given")
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(8*a.Size())
	}
	if got := read(int64(buf.Len())); got > 1.1 {
		t.Fatalf("a read of known length allocated %.2f× its cells, want at most 1.1×", got)
	}
	if got := read(0); got > 2.1 {
		t.Fatalf("a read of unknown length allocated %.2f× its cells, want at most 2.1×", got)
	}
	if got := read(0, ndarray.New[int64](1024, 1024)); got > 0.1 {
		t.Fatalf("a read into an array allocated %.2f× its cells, want under 0.1×", got)
	}
	if _, _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), ndarray.New[int64](1024, 1023)); err == nil {
		t.Fatal("a snapshot was read into an array of another shape")
	}
}

// TestHostileLengthAllocatesLittle reads a snapshot whose header claims 2^40
// cells over 256 KiB of them. Known to be that short, the input fails before
// the cells are allocated; of unknown length, it fails at its end, having
// allocated at most a few times what it held, never the claim.
func TestHostileLengthAllocatesLittle(t *testing.T) {
	e := newEncoder(nil, 0, KindSnapshot)
	e.u64(1)
	e.ints([]int{1 << 20, 1 << 20})
	body := append(e.buf, make([]byte, 256<<10)...)
	for _, c := range []struct {
		size  int64
		bound uint64
	}{
		{int64(len(body)), 4 << 10},
		{0, 4*uint64(len(body)) + 16*chunkCells},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadSnapshotSized(bytes.NewReader(body), c.size)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; err == nil || got > c.bound {
			t.Errorf("size %d: err %v after allocating %d bytes, want an error within %d", c.size, err, got, c.bound)
		}
	}
}

// TestEncodeSnapshotOfRegion holds EncodeSnapshot of a region, read straight
// from the array's runs, to WriteSnapshot of the region's copy, byte for byte:
// regions that cut every dimension, and runs longer than a chunk.
func TestEncodeSnapshotOfRegion(t *testing.T) {
	for _, c := range []struct {
		shape []int
		r     ndarray.Region
	}{
		{[]int{5, 6, 7}, ndarray.Region{{Lo: 1, Hi: 3}, {Lo: 0, Hi: 5}, {Lo: 2, Hi: 4}}},
		{[]int{3, 3 * chunkCells}, ndarray.Region{{Lo: 1, Hi: 2}, {Lo: 5, Hi: 3*chunkCells - 2}}},
		{[]int{4}, ndarray.Region{{Lo: 0, Hi: 3}}},
	} {
		a := ndarray.New[int64](c.shape...)
		for i := range a.Data() {
			a.Data()[i] = int64(i*7919) - 1<<40
		}
		shape := make([]int, len(c.r))
		for j, rng := range c.r {
			shape[j] = rng.Len()
		}
		cp, k := ndarray.New[int64](shape...), 0
		ndarray.ForEachOffset(a, c.r, func(off int) { cp.Data()[k] = a.Data()[off]; k++ })
		var want bytes.Buffer
		if err := WriteSnapshot(&want, 5, cp); err != nil {
			t.Fatal(err)
		}
		if got := EncodeSnapshot(5, a, c.r); !bytes.Equal(got, want.Bytes()) || cap(got) != len(got) {
			t.Errorf("region %v of %v: %d bytes (cap %d), want the copy's %d", c.r, c.shape, len(got), cap(got), want.Len())
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("first"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failed write must leave the previous content and no temp litter.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		return os.ErrInvalid
	}); err == nil {
		t.Fatal("write error swallowed")
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "first" {
		t.Fatalf("previous content lost: %q, %v", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
	// A successful rewrite replaces the content.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("second"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "second" {
		t.Fatalf("content after rewrite: %q", data)
	}
}
