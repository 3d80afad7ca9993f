// Package persist serializes the precomputed range-query structures so an
// OLAP server can build them offline (e.g. during the nightly batch
// window, §5) and memory-map or reload them at start-up. The format is a
// small versioned little-endian binary envelope around the arrays that
// constitute each structure's state:
//
//   - a prefix-sum index persists P itself (the cube may be discarded,
//     §3.4);
//   - a blocked index persists the cube, the packed block-level prefix
//     sums and the per-dimension block sizes;
//   - a max tree persists the cube plus its fanout and MIN flag and is
//     rebuilt on load (construction is a single O(N) pass, and the tree
//     levels are derived state).
//
// Since version 2 every envelope ends with a CRC32C (Castagnoli) checksum
// of all preceding bytes (magic through payload), so silent corruption of
// a stored structure — a truncated copy, a flipped bit on disk — is
// detected at load time instead of producing wrong query answers. Readers
// still accept version-1 envelopes, which carry no checksum.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"rangecube/internal/algebra"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/ndarray"
)

const (
	magic    = uint32(0x52435542) // "RCUB"
	version1 = uint16(1)          // no checksum trailer
	version  = uint16(2)          // current: trailing CRC32C
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter hashes everything written through it; the envelope writers
// stream the header and payload through one and append the final sum.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.sum = crc32.Update(cw.sum, castagnoli, p[:n])
	return n, err
}

// crcReader hashes everything read through it; verify compares the running
// sum against the stored trailer (read from the underlying reader so the
// trailer itself is not hashed).
type crcReader struct {
	r   io.Reader
	sum uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.sum = crc32.Update(cr.sum, castagnoli, p[:n])
	return n, err
}

func (cr *crcReader) verify() error {
	want := cr.sum
	var stored uint32
	if err := binary.Read(cr.r, binary.LittleEndian, &stored); err != nil {
		return fmt.Errorf("persist: reading checksum trailer: %w", err)
	}
	if stored != want {
		return fmt.Errorf("persist: checksum mismatch: stored %#08x, computed %#08x", stored, want)
	}
	return nil
}

// Kind tags the structure stored in an envelope.
type Kind uint8

const (
	KindPrefixSum Kind = 1
	KindBlocked   Kind = 2
	KindMaxTree   Kind = 3
)

// limits guarding against corrupt headers.
const (
	maxDims  = 64
	maxCells = int64(1) << 40
)

func writeHeader(w io.Writer, kind Kind) error {
	if err := binary.Write(w, binary.LittleEndian, magic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, version); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, kind)
}

func readHeader(r io.Reader, want Kind) (uint16, error) {
	var m uint32
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
		return 0, fmt.Errorf("persist: reading magic: %w", err)
	}
	if m != magic {
		return 0, fmt.Errorf("persist: bad magic %#x", m)
	}
	var v uint16
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return 0, err
	}
	if v != version1 && v != version {
		return 0, fmt.Errorf("persist: unsupported version %d", v)
	}
	var k Kind
	if err := binary.Read(r, binary.LittleEndian, &k); err != nil {
		return 0, err
	}
	if k != want {
		return 0, fmt.Errorf("persist: expected structure kind %d, found %d", want, k)
	}
	return v, nil
}

func writeInts(w io.Writer, xs []int) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(xs))); err != nil {
		return err
	}
	for _, x := range xs {
		if err := binary.Write(w, binary.LittleEndian, int64(x)); err != nil {
			return err
		}
	}
	return nil
}

func readInts(r io.Reader, maxLen int) ([]int, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if int(n) > maxLen {
		return nil, fmt.Errorf("persist: vector length %d exceeds limit %d", n, maxLen)
	}
	out := make([]int, n)
	for i := range out {
		var v int64
		if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

func writeArray(w io.Writer, a *ndarray.Array[int64]) error {
	if err := writeInts(w, a.Shape()); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, a.Data())
}

// readArray reads an array: into dst's cells when dst is not nil, whose shape
// the header must then name.
func readArray(r io.Reader, dst *ndarray.Array[int64]) (*ndarray.Array[int64], error) {
	shape, err := readInts(r, maxDims)
	if err != nil {
		return nil, err
	}
	if len(shape) == 0 {
		return nil, fmt.Errorf("persist: zero-dimensional array")
	}
	cells := int64(1)
	for _, s := range shape {
		if s < 1 {
			return nil, fmt.Errorf("persist: non-positive extent %d", s)
		}
		// Overflow-safe product guard: check before multiplying, so two
		// large extents cannot wrap negative past the limit (found by
		// FuzzReaders).
		if int64(s) > maxCells || cells > maxCells/int64(s) {
			return nil, fmt.Errorf("persist: array too large")
		}
		cells *= int64(s)
	}
	// A corrupt header claiming absurd extents must fail at end-of-input
	// instead of allocating the claimed size up front (found by FuzzReaders),
	// so without dst the cells land in a slice that doubles as they arrive
	// and takes its full size once over a quarter has: at most 2× the cells
	// in all. They are read through one reused chunk of bytes.
	const chunk = 1 << 16
	var data []int64
	switch {
	case dst == nil:
		data = make([]int64, 0, min(cells, chunk))
	case slices.Equal(dst.Shape(), shape):
		data = dst.Data()[:0:cells]
	default:
		return nil, fmt.Errorf("persist: array of shape %v, want %v", shape, dst.Shape())
	}
	buf := make([]byte, 8*min(cells, chunk))
	for int64(len(data)) < cells {
		if len(data) == cap(data) {
			n := 2 * int64(cap(data))
			if 2*n > cells {
				n = cells
			}
			data = append(make([]int64, 0, n), data...)
		}
		b := buf[:8*min(cap(data)-len(data), chunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("persist: reading %d cells: %w", cells, err)
		}
		for ; len(b) > 0; b = b[8:] {
			data = append(data, int64(binary.LittleEndian.Uint64(b)))
		}
	}
	if dst != nil {
		return dst, nil
	}
	return ndarray.FromSlice(data, shape...), nil
}

// WritePrefixSum serializes a prefix-sum index (its P array).
func WritePrefixSum(w io.Writer, ps *prefixsum.IntArray) error {
	cw := &crcWriter{w: w}
	if err := writeHeader(cw, KindPrefixSum); err != nil {
		return err
	}
	if err := writeArray(cw, ps.P()); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cw.sum)
}

// ReadPrefixSum deserializes a prefix-sum index.
func ReadPrefixSum(r io.Reader) (*prefixsum.IntArray, error) {
	cr := &crcReader{r: r}
	ver, err := readHeader(cr, KindPrefixSum)
	if err != nil {
		return nil, err
	}
	p, err := readArray(cr, nil)
	if err != nil {
		return nil, err
	}
	if ver >= version {
		if err := cr.verify(); err != nil {
			return nil, err
		}
	}
	return prefixsum.FromPrecomputed[int64, algebra.IntSum](p), nil
}

// WriteBlocked serializes a blocked index: block sizes, cube, packed sums.
// It first folds bl's queued value-to-adds into packed (Flush), since the
// format holds no queue: without the fold a restored index would lose them.
func WriteBlocked(w io.Writer, bl *blocked.IntArray) error {
	bl.Flush(nil)
	cw := &crcWriter{w: w}
	if err := writeHeader(cw, KindBlocked); err != nil {
		return err
	}
	if err := writeInts(cw, bl.BlockSizes()); err != nil {
		return err
	}
	if err := writeArray(cw, bl.Cube()); err != nil {
		return err
	}
	if err := writeArray(cw, bl.Packed().P()); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cw.sum)
}

// ReadBlocked deserializes a blocked index.
func ReadBlocked(r io.Reader) (*blocked.IntArray, error) {
	cr := &crcReader{r: r}
	ver, err := readHeader(cr, KindBlocked)
	if err != nil {
		return nil, err
	}
	bs, err := readInts(cr, maxDims)
	if err != nil {
		return nil, err
	}
	cube, err := readArray(cr, nil)
	if err != nil {
		return nil, err
	}
	packed, err := readArray(cr, nil)
	if err != nil {
		return nil, err
	}
	if ver >= version {
		if err := cr.verify(); err != nil {
			return nil, err
		}
	}
	if len(bs) != cube.Dims() {
		return nil, fmt.Errorf("persist: %d block sizes for %d dimensions", len(bs), cube.Dims())
	}
	for j, b := range bs {
		if b < 1 || packed.Shape()[j] != (cube.Shape()[j]+b-1)/b {
			return nil, fmt.Errorf("persist: inconsistent blocked geometry in dimension %d", j)
		}
	}
	return blocked.FromParts[int64, algebra.IntSum](cube, packed, bs), nil
}

// WriteMaxTree serializes a max tree: flags, fanout and the cube; levels
// are rebuilt on load.
func WriteMaxTree(w io.Writer, tr *maxtree.Tree[int64], isMin bool) error {
	cw := &crcWriter{w: w}
	if err := writeHeader(cw, KindMaxTree); err != nil {
		return err
	}
	flags := uint8(0)
	if isMin {
		flags = 1
	}
	if err := binary.Write(cw, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(tr.Fanout())); err != nil {
		return err
	}
	if err := writeArray(cw, tr.Cube()); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cw.sum)
}

// ReadMaxTree deserializes and rebuilds a max (or min) tree.
func ReadMaxTree(r io.Reader) (*maxtree.Tree[int64], error) {
	cr := &crcReader{r: r}
	ver, err := readHeader(cr, KindMaxTree)
	if err != nil {
		return nil, err
	}
	var flags uint8
	if err := binary.Read(cr, binary.LittleEndian, &flags); err != nil {
		return nil, err
	}
	var fanout uint32
	if err := binary.Read(cr, binary.LittleEndian, &fanout); err != nil {
		return nil, err
	}
	if fanout < 2 || fanout > 1<<20 {
		return nil, fmt.Errorf("persist: implausible fanout %d", fanout)
	}
	cube, err := readArray(cr, nil)
	if err != nil {
		return nil, err
	}
	// Verify before the O(N) rebuild: a corrupt cube must not be built into
	// a tree that would then answer queries from damaged data.
	if ver >= version {
		if err := cr.verify(); err != nil {
			return nil, err
		}
	}
	if flags&1 != 0 {
		return maxtree.BuildMin(cube, int(fanout)), nil
	}
	return maxtree.Build(cube, int(fanout)), nil
}
