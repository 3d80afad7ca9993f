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

// chunkCells is how many cells one step of the codec moves: 64 KiB of bytes,
// encoded or decoded in one loop and hashed while they are in cache.
const chunkCells = 1 << 13

// encoder lays an envelope out in buf and hashes it into crc as it goes.
// Without w, buf is the whole envelope (EncodeSnapshot sizes it exactly).
// With w it streams: a chunk of cells that would not fit sends buf to w and
// buf starts over, so an envelope of any size holds one chunk. The first
// write error sticks and stops the cells.
type encoder struct {
	w      io.Writer
	buf    []byte
	hashed int // buf[:hashed] is in crc
	crc    uint32
	err    error
}

// newEncoder starts an envelope of the given kind: in a buffer of size bytes
// without w, through one chunk of memory with it.
func newEncoder(w io.Writer, size int, kind Kind) *encoder {
	if w != nil {
		size = 8 * chunkCells
	}
	e := &encoder{w: w, buf: make([]byte, 0, size)}
	e.u32(magic)
	e.buf = append(binary.LittleEndian.AppendUint16(e.buf, version), byte(kind))
	return e
}

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// ints lays out a vector as decoder.ints reads it: length, then values.
func (e *encoder) ints(xs []int) {
	e.u32(uint32(len(xs)))
	for _, x := range xs {
		e.u64(uint64(x))
	}
}

// array lays out region r of a as decoder.array reads an array of r's shape:
// the extents, then the cells in row-major order, taken a run at a time
// straight from a's backing slice.
func (e *encoder) array(a *ndarray.Array[int64], r ndarray.Region) {
	e.u32(uint32(len(r)))
	for _, rng := range r {
		e.u64(uint64(rng.Len()))
	}
	data := a.Data()
	ndarray.ForEachLine(a, r, func(ln ndarray.Line) {
		for run := data[ln.Off : ln.Off+ln.Len]; len(run) > 0 && e.err == nil; {
			n := min(len(run), chunkCells)
			if e.w != nil && len(e.buf)+8*n > cap(e.buf) {
				e.flush()
			}
			at := len(e.buf)
			e.buf = slices.Grow(e.buf, 8*n)[:at+8*n]
			for i, v := range run[:n] {
				binary.LittleEndian.PutUint64(e.buf[at+8*i:], uint64(v))
			}
			e.hash()
			run = run[n:]
		}
	})
}

func (e *encoder) hash() {
	e.crc = crc32.Update(e.crc, castagnoli, e.buf[e.hashed:])
	e.hashed = len(e.buf)
}

// flush hashes buf and writes it to w; buf starts over.
func (e *encoder) flush() {
	e.hash()
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf, e.hashed = e.buf[:0], 0
}

// finish appends the checksum trailer and returns the envelope or, with w,
// writes what is left of it.
func (e *encoder) finish() ([]byte, error) {
	e.hash()
	e.u32(e.crc)
	if e.hashed = len(e.buf); e.w != nil {
		e.flush()
	}
	return e.buf, e.err
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

// decoder reads an envelope, hashing and counting every byte of it but the
// trailer. The first error sticks: every later read returns zero values, so
// a reader checks once, at close. size, when not 0, is the input's length,
// which bounds what array allocates.
type decoder struct {
	r       io.Reader
	crc     uint32
	n, size int64
	ver     uint16
	scratch [8]byte
	err     error
}

// open starts reading an envelope of the given kind: its header.
func open(r io.Reader, size int64, kind Kind) *decoder {
	d := &decoder{r: r, size: max(size, 0)}
	m, v, k := d.u32(), d.u16(), Kind(d.u8())
	switch { // after a read error, m is 0 and fail keeps that error
	case m != magic:
		d.fail("persist: bad magic %#x", m)
	case v != version1 && v != version:
		d.fail("persist: unsupported version %d", v)
	case k != kind:
		d.fail("persist: expected structure kind %d, found %d", kind, k)
	}
	d.ver = v
	return d
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// bytes reads the next n ≤ 8 bytes into scratch.
func (d *decoder) bytes(n int) []byte {
	b := d.scratch[:n]
	if d.read(b) != nil {
		clear(b)
	}
	return b
}

// read fills b, hashing and counting it.
func (d *decoder) read(b []byte) error {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, b)
		d.crc, d.n = crc32.Update(d.crc, castagnoli, b), d.n+int64(len(b))
	}
	return d.err
}

func (d *decoder) u8() uint8   { return d.bytes(1)[0] }
func (d *decoder) u16() uint16 { return binary.LittleEndian.Uint16(d.bytes(2)) }
func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.bytes(4)) }
func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.bytes(8)) }

// ints reads a vector of at most maxLen values.
func (d *decoder) ints(maxLen int) []int {
	n := d.u32()
	if int(n) > maxLen {
		d.fail("persist: vector length %d exceeds limit %d", n, maxLen)
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.u64())
	}
	return out
}

// close checks the checksum trailer of a version-2 envelope, read past the
// hash, and returns the first error of the envelope.
func (d *decoder) close() error {
	if want := d.crc; d.err == nil && d.ver >= version {
		if _, err := io.ReadFull(d.r, d.scratch[:4]); err != nil {
			d.fail("persist: reading checksum trailer: %w", err)
		} else if got := binary.LittleEndian.Uint32(d.scratch[:4]); got != want {
			d.fail("persist: checksum mismatch: stored %#08x, computed %#08x", got, want)
		}
	}
	return d.err
}

// array reads an array: into dst's cells when dst is not nil, whose shape
// the header must then name.
func (d *decoder) array(dst *ndarray.Array[int64]) *ndarray.Array[int64] {
	shape := d.ints(maxDims)
	if len(shape) == 0 {
		d.fail("persist: zero-dimensional array")
	}
	cells := int64(1)
	for _, s := range shape {
		if s < 1 {
			d.fail("persist: non-positive extent %d", s)
			return nil
		}
		// Overflow-safe product guard: check before multiplying, so two
		// large extents cannot wrap negative past the limit (found by
		// FuzzReaders).
		if int64(s) > maxCells || cells > maxCells/int64(s) {
			d.fail("persist: array too large")
			return nil
		}
		cells *= int64(s)
	}
	// A corrupt header claiming absurd extents must not allocate the claimed
	// size up front (found by FuzzReaders). With the input's size known, a
	// claim the rest of the input cannot hold fails at once and any other is
	// allocated once. Without it, the cells land in a slice that doubles as
	// they arrive and takes its full size once over a quarter has: at most 2×
	// the cells in all. They are read through one reused chunk of bytes.
	var data []int64
	switch {
	case d.err != nil:
		return nil
	case dst != nil && !slices.Equal(dst.Shape(), shape):
		d.fail("persist: array of shape %v, want %v", shape, dst.Shape())
		return nil
	case dst != nil:
		data = dst.Data()[:0:cells]
	case d.size == 0:
		data = make([]int64, 0, min(cells, chunkCells))
	case 8*cells > d.size-d.n:
		d.fail("persist: %d cells claimed, %d bytes left", cells, d.size-d.n)
		return nil
	default:
		data = make([]int64, 0, cells)
	}
	buf := make([]byte, 8*min(cells, chunkCells))
	for int64(len(data)) < cells {
		if len(data) == cap(data) {
			n := 2 * int64(cap(data))
			if 2*n > cells {
				n = cells
			}
			data = append(make([]int64, 0, n), data...)
		}
		b := buf[:8*min(cap(data)-len(data), chunkCells)]
		if d.read(b) != nil {
			d.err = fmt.Errorf("persist: reading %d cells: %w", cells, d.err)
			return nil
		}
		for ; len(b) > 0; b = b[8:] {
			data = append(data, int64(binary.LittleEndian.Uint64(b)))
		}
	}
	if dst != nil {
		return dst
	}
	return ndarray.FromSlice(data, shape...)
}

// WritePrefixSum serializes a prefix-sum index (its P array).
func WritePrefixSum(w io.Writer, ps *prefixsum.IntArray) error {
	e := newEncoder(w, 0, KindPrefixSum)
	e.array(ps.P(), ps.P().Bounds())
	_, err := e.finish()
	return err
}

// ReadPrefixSum deserializes a prefix-sum index.
func ReadPrefixSum(r io.Reader) (*prefixsum.IntArray, error) {
	d := open(r, 0, KindPrefixSum)
	p := d.array(nil)
	if err := d.close(); err != nil {
		return nil, err
	}
	return prefixsum.FromPrecomputed[int64, algebra.IntSum](p), nil
}

// WriteBlocked serializes a blocked index: block sizes, cube, packed sums.
// It first folds bl's queued value-to-adds into packed (Flush), since the
// format holds no queue: without the fold a restored index would lose them.
func WriteBlocked(w io.Writer, bl *blocked.IntArray) error {
	bl.Flush(nil)
	e := newEncoder(w, 0, KindBlocked)
	e.ints(bl.BlockSizes())
	e.array(bl.Cube(), bl.Cube().Bounds())
	e.array(bl.Packed().P(), bl.Packed().P().Bounds())
	_, err := e.finish()
	return err
}

// ReadBlocked deserializes a blocked index.
func ReadBlocked(r io.Reader) (*blocked.IntArray, error) {
	d := open(r, 0, KindBlocked)
	bs := d.ints(maxDims)
	cube, packed := d.array(nil), d.array(nil)
	if err := d.close(); err != nil {
		return nil, err
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
	e := newEncoder(w, 0, KindMaxTree)
	flags := uint8(0)
	if isMin {
		flags = 1
	}
	e.buf = append(e.buf, flags)
	e.u32(uint32(tr.Fanout()))
	e.array(tr.Cube(), tr.Cube().Bounds())
	_, err := e.finish()
	return err
}

// ReadMaxTree deserializes and rebuilds a max (or min) tree.
func ReadMaxTree(r io.Reader) (*maxtree.Tree[int64], error) {
	d := open(r, 0, KindMaxTree)
	flags, fanout := d.u8(), d.u32()
	if fanout < 2 || fanout > 1<<20 {
		d.fail("persist: implausible fanout %d", fanout)
	}
	cube := d.array(nil)
	// Verify before the O(N) rebuild: a corrupt cube must not be built into
	// a tree that would then answer queries from damaged data.
	if err := d.close(); err != nil {
		return nil, err
	}
	if flags&1 != 0 {
		return maxtree.BuildMin(cube, int(fanout)), nil
	}
	return maxtree.Build(cube, int(fanout)), nil
}
