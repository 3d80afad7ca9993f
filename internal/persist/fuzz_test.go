package persist

import (
	"bytes"
	"testing"

	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/ndarray"
)

// FuzzReaders feeds arbitrary bytes to every decoder: corrupt or truncated
// input must produce an error, never a panic or a runaway allocation.
func FuzzReaders(f *testing.F) {
	// Seed with valid encodings of each kind so the fuzzer mutates real
	// structure, not just noise.
	a := ndarray.FromSlice([]int64{1, 2, 3, 4, 5, 6}, 2, 3)
	var buf bytes.Buffer
	if err := WritePrefixSum(&buf, prefixsum.BuildInt(a)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := WriteBlocked(&buf, blocked.BuildInt(a, 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := WriteMaxTree(&buf, maxtree.Build(a, 2), false); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := WriteSnapshot(&buf, 42, a); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x55, 0x43, 0x52})

	f.Fuzz(func(t *testing.T, data []byte) {
		if ps, err := ReadPrefixSum(bytes.NewReader(data)); err == nil {
			// A successfully decoded structure must be usable.
			ps.Sum(ps.P().Bounds(), nil)
		}
		if bl, err := ReadBlocked(bytes.NewReader(data)); err == nil {
			bl.Sum(bl.Cube().Bounds(), nil)
		}
		if tr, err := ReadMaxTree(bytes.NewReader(data)); err == nil {
			tr.MaxIndex(tr.Cube().Bounds(), nil)
		}
		if _, cells, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			_ = cells.Size()
		}
		if _, cells, err := ReadSnapshotSized(bytes.NewReader(data), int64(len(data))); err == nil {
			_ = cells.Size()
		}
	})
}
