// Package wal implements a write-ahead log for the server's §5 update
// batches. The paper's deployment model precomputes structures offline and
// applies incremental batch updates online; those batches are the only
// state that cannot be rebuilt from the source data, so they are the state
// that must survive a crash. A server appends each validated batch to the
// log (fsynced) before applying it in memory; on restart it replays the
// log's committed prefix on top of the last snapshot.
//
// File layout (all little-endian):
//
//	header:  u32 magic "RCWL", u16 version
//	record:  u32 payload length, u32 CRC32C(payload), payload
//	payload: u64 seq, u16 dims, u32 count, count × (dims × i32 coords, i64 delta)
//
// Recovery invariant: Scan returns exactly the batches whose records are
// entirely present and checksum-clean, stopping at the first truncated or
// corrupt record — the committed prefix. Open truncates the file to that
// prefix, so a crash mid-append (a torn record tail) is erased and the log
// is again append-clean. Sequence numbers are strictly increasing; replay
// after a snapshot skips batches with seq ≤ the snapshot's.
//
// Storage-fault model: a log also defends its committed prefix against a
// disk that misbehaves while the process survives (ENOSPC, EIO, a failed
// fsync). Append tracks the last committed byte offset; on any write or
// fsync error it rewinds the file to that offset (truncate + re-fsync) and
// retries the record once. If the repair or the retry fails the log is
// *poisoned*: the on-disk state can no longer be trusted, so every further
// append fails fast with an error matching ErrPoisoned and the owner must
// rebuild durability elsewhere (the server's answer is a fresh snapshot
// plus a new log via Create). The committed prefix already on disk is never
// touched by any failure path.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rangecube/internal/telemetry"
)

const (
	fileMagic   = uint32(0x4C574352) // "RCWL"
	fileVersion = uint16(1)
	headerSize  = 6
	frameSize   = 8 // u32 length + u32 crc per record

	// maxRecord bounds a single record so a corrupt length field cannot
	// drive a giant allocation; 64 MiB is far above any realistic batch.
	maxRecord = 64 << 20

	maxDims = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Update is one cell delta of a batch, the JSON shape of the server's
// /update entries.
type Update struct {
	Coords []int `json:"coords"`
	Delta  int64 `json:"delta"`
}

// Batch is one durable unit: the updates applied atomically under the
// server's write lock, tagged with its position in the update sequence.
type Batch struct {
	Seq     uint64
	Updates []Update
}

// Coalesce folds updates into one per cell of a cube of the given shape, in
// the order each cell first appears: the deltas of a cell named more than
// once add up (the §5 value-to-add form is order-independent) and a cell
// whose net delta is zero is dropped. Every update must name a cell of the
// cube. One group that already names each cell once with a nonzero delta is
// returned as it is; otherwise the result is a new slice sharing the
// updates' coordinates. Cells are grouped by sorting, not hashing, and up to
// 32 of them need no allocation to be found distinct.
func Coalesce(shape []int, groups ...[]Update) []Update {
	type cell struct {
		off, g, k int // the cell's row-major offset and its first update
		delta     int64
	}
	var stack [32]cell
	cells := stack[:0]
	for g, ups := range groups {
		for k, u := range ups {
			off := 0
			for j, x := range u.Coords {
				off = off*shape[j] + x
			}
			cells = append(cells, cell{off, g, k, u.Delta})
		}
	}
	n := len(cells)
	slices.SortFunc(cells, func(x, y cell) int {
		return cmp.Or(cmp.Compare(x.off, y.off), cmp.Compare(x.g, y.g), cmp.Compare(x.k, y.k))
	})
	w := 0
	for _, c := range cells {
		if w > 0 && cells[w-1].off == c.off {
			cells[w-1].delta += c.delta
		} else {
			cells[w] = c
			w++
		}
	}
	cells = cells[:w]
	zero := slices.ContainsFunc(cells, func(c cell) bool { return c.delta == 0 })
	if len(groups) == 1 && w == n && !zero {
		return groups[0]
	}
	slices.SortFunc(cells, func(x, y cell) int {
		return cmp.Or(cmp.Compare(x.g, y.g), cmp.Compare(x.k, y.k))
	})
	out := make([]Update, 0, w)
	for _, c := range cells {
		if c.delta != 0 {
			out = append(out, Update{Coords: groups[c.g][c.k].Coords, Delta: c.delta})
		}
	}
	return out
}

// EncodeBatch serializes a batch payload. All updates must share a
// dimensionality ≤ 64 with coordinates that fit in int32 — the server
// validates batches against the cube shape before logging, so a failure
// here means a caller bug. A batch with no updates encodes as dims 0 and
// count 0: the log never holds one, but a remote shard is sent one for a
// commit that misses its slab, so it stays at the leader's seq.
func EncodeBatch(b Batch) ([]byte, error) {
	return AppendBatch(nil, b)
}

// AppendBatch encodes the batch payload onto dst (appending, so callers on
// the hot path can reuse one buffer across batches instead of allocating
// per append).
func AppendBatch(dst []byte, b Batch) ([]byte, error) {
	dims := 0
	if len(b.Updates) > 0 {
		if dims = len(b.Updates[0].Coords); dims < 1 || dims > maxDims {
			return nil, fmt.Errorf("wal: %d-dimensional update", dims)
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, b.Seq)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(dims))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Updates)))
	for _, u := range b.Updates {
		if len(u.Coords) != dims {
			return nil, fmt.Errorf("wal: mixed dimensionality %d vs %d", len(u.Coords), dims)
		}
		for _, x := range u.Coords {
			if x < math.MinInt32 || x > math.MaxInt32 {
				return nil, fmt.Errorf("wal: coordinate %d overflows int32", x)
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(x)))
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(u.Delta))
	}
	return dst, nil
}

// DecodeBatch parses a record payload. The payload length must match the
// declared count exactly; trailing or missing bytes are corruption.
func DecodeBatch(p []byte) (Batch, error) {
	const head = 8 + 2 + 4
	if len(p) < head {
		return Batch{}, fmt.Errorf("wal: payload of %d bytes", len(p))
	}
	seq := binary.LittleEndian.Uint64(p[0:])
	dims := int(binary.LittleEndian.Uint16(p[8:]))
	count := int(binary.LittleEndian.Uint32(p[10:]))
	if dims == 0 && count == 0 && len(p) == head {
		return Batch{Seq: seq}, nil // a commit that missed a shard's slab
	}
	if dims < 1 || dims > maxDims {
		return Batch{}, fmt.Errorf("wal: %d-dimensional payload", dims)
	}
	entry := 4*dims + 8
	if count < 1 || len(p)-head != count*entry {
		return Batch{}, fmt.Errorf("wal: payload length %d does not match %d updates of %d dims", len(p), count, dims)
	}
	b := Batch{Seq: seq, Updates: make([]Update, count)}
	off := head
	for i := range b.Updates {
		coords := make([]int, dims)
		for j := range coords {
			coords[j] = int(int32(binary.LittleEndian.Uint32(p[off:])))
			off += 4
		}
		b.Updates[i] = Update{Coords: coords, Delta: int64(binary.LittleEndian.Uint64(p[off:]))}
		off += 8
	}
	return b, nil
}

// FrameSize is the record frame in front of every payload: u32 length, u32
// CRC32C.
const FrameSize = frameSize

// SealRecord fills in the frame of rec, a payload built behind FrameSize
// reserved bytes, and returns rec. It is the one framing in the repository:
// the log's records and the shard tier's scatter frames are both sealed here
// and checked by OpenRecord.
func SealRecord(rec []byte) ([]byte, error) {
	n := len(rec) - frameSize
	if n < 0 || n > maxRecord {
		return nil, fmt.Errorf("wal: record of %d bytes outside the frame's limits", n)
	}
	binary.LittleEndian.PutUint32(rec[0:], uint32(n))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[frameSize:], castagnoli))
	return rec, nil
}

// OpenRecord returns the payload of rec (aliasing it) when rec is exactly one
// sealed record: the declared length is the length present and the checksum
// matches.
func OpenRecord(rec []byte) ([]byte, error) {
	if len(rec) < frameSize || int64(binary.LittleEndian.Uint32(rec[0:])) != int64(len(rec)-frameSize) {
		return nil, fmt.Errorf("wal: %d bytes are not one framed record", len(rec))
	}
	if crc32.Checksum(rec[frameSize:], castagnoli) != binary.LittleEndian.Uint32(rec[4:]) {
		return nil, errors.New("wal: record checksum mismatch")
	}
	return rec[frameSize:], nil
}

// WriteHeader writes the file header; Open calls it on a fresh log file.
func WriteHeader(w io.Writer) error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
	binary.LittleEndian.PutUint16(hdr[4:], fileVersion)
	_, err := w.Write(hdr[:])
	return err
}

// Scan reads a log stream and returns its committed prefix: every batch
// whose record is fully present with a matching checksum, in order, plus
// the byte length of that prefix (header included). A truncated or corrupt
// tail ends the scan silently — that is the recovery semantic, not an
// error. err is non-nil only when the stream is not a WAL at all (bad or
// missing header) or a read fails with something other than EOF.
func Scan(r io.Reader) (batches []Batch, valid int64, err error) {
	if err := readLogHeader(r); err != nil {
		return nil, 0, err
	}
	batches, n, err := scanRecords(r)
	return batches, headerSize + n, err
}

// readLogHeader consumes and validates the file header.
func readLogHeader(r io.Reader) error {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("wal: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != fileMagic {
		return errors.New("wal: bad magic")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != fileVersion {
		return fmt.Errorf("wal: unsupported version %d", v)
	}
	return nil
}

// scanRecords reads framed records from the current stream position until
// the committed prefix ends, returning the decoded batches and how many
// bytes of clean records were consumed. Shared by Scan (recovery from the
// header) and ScanStream (a GET /wal body from an arbitrary boundary).
func scanRecords(r io.Reader) (batches []Batch, n int64, err error) {
	var seq uint64
	valid := int64(0)
	for {
		var frame [frameSize]byte
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return batches, valid, nil // truncated frame: end of committed prefix
			}
			return batches, valid, err
		}
		n := binary.LittleEndian.Uint32(frame[0:])
		if n == 0 || n > maxRecord {
			return batches, valid, nil // implausible length: corrupt tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return batches, valid, nil // truncated payload
			}
			return batches, valid, err
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:]) {
			return batches, valid, nil // corrupt record
		}
		b, err := DecodeBatch(payload)
		if err != nil {
			return batches, valid, nil // checksum-clean but malformed: treat as corruption
		}
		if b.Seq <= seq {
			return batches, valid, nil // sequence must be strictly increasing
		}
		seq = b.Seq
		batches = append(batches, b)
		valid += frameSize + int64(n)
	}
}

// Metrics carries the optional telemetry hooks a Log reports into. All
// fields may be nil (telemetry primitives no-op on nil receivers), and a nil
// *Metrics disables accounting entirely — the default for logs opened
// outside a server.
type Metrics struct {
	// AppendBytes counts durable bytes appended (frame + payload).
	AppendBytes *telemetry.Counter
	// FsyncSeconds observes the latency of each successful appending fsync
	// in nanoseconds (export with scale 1e-9).
	FsyncSeconds *telemetry.Histogram
	// Faults counts storage errors: Append's failed writes and fsyncs, and
	// the failed truncate, fsync or seek with which Reset poisons the log.
	// Repairs counts the Append faults healed in place by the
	// rewind-and-retry path. Faults minus Repairs grows only when the log
	// poisons, by 1 or 2 — a second fault inside one append poisons it.
	Faults  *telemetry.Counter
	Repairs *telemetry.Counter
}

// ErrPoisoned matches (with errors.Is) every error returned by a log whose
// self-repair failed: the file's tail state is unknown, so appends are
// disabled until the owner rebuilds durability (snapshot + Create).
var ErrPoisoned = errors.New("wal: log poisoned")

// File is the subset of *os.File the log needs. Accepting an interface
// here is what lets the disk-chaos harness slide fault injection (ENOSPC,
// EIO, failed fsyncs, slow I/O) under the real append and recovery code.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
}

// OpenFileFunc opens (creating if absent) the log's backing file for
// read-write. Nil means the real filesystem.
type OpenFileFunc func(path string) (File, error)

func osOpen(path string) (File, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
}

// Log is an open write-ahead log file positioned for appends. It is not
// safe for concurrent use: every method but LastAppendNano runs under the
// owner's commit serialization (the server's commit mutex, which readers
// never take — so a reader wanting the log's length asks the owner for the
// end offset it has published, never Size).
type Log struct {
	f       File
	path    string
	size    int64 // committed length; the file never holds more durable bytes
	lastSeq uint64
	met     *Metrics
	// lastAppend is the wall-clock unixnano of the last durable append.
	// Atomic, unlike every other field: telemetry gauges poll it without
	// the owner's commit serialization.
	lastAppend atomic.Int64
	// poisoned is the fault that disabled appends, nil while healthy.
	poisoned error
}

// SetMetrics installs telemetry hooks; pass nil to disable. Not safe to
// call concurrently with Append.
func (l *Log) SetMetrics(m *Metrics) { l.met = m }

// Open opens (or creates) the log at path, recovers its committed prefix,
// truncates any torn tail, and returns the recovered batches for replay.
// The returned log is positioned to append the next batch.
func Open(path string) (*Log, []Batch, error) { return OpenFile(path, nil) }

// OpenFile is Open with an injectable filesystem; nil open means os.OpenFile.
func OpenFile(path string, open OpenFileFunc) (*Log, []Batch, error) {
	if open == nil {
		open = osOpen
	}
	f, err := open(path)
	if err != nil {
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &Log{f: f, path: path}
	if info.Size() == 0 {
		// Fresh log: write and persist the header.
		if err := WriteHeader(f); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.size = headerSize
		return l, nil, nil
	}
	batches, valid, err := Scan(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: recovering %s: %w", path, err)
	}
	if valid < info.Size() {
		// Torn tail from a crash mid-append: erase it so the next record
		// starts at a clean boundary.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	l.size = valid
	if n := len(batches); n > 0 {
		l.lastSeq = batches[n-1].Seq
	}
	return l, batches, nil
}

// Create opens the log at path discarding any existing contents: truncate
// to zero, write a fresh header, fsync. It is the degraded-mode recovery
// path — once a snapshot has captured everything a poisoned log held, the
// old file (whose tail state is unknown) is superseded wholesale rather
// than repaired in place.
func Create(path string, open OpenFileFunc) (*Log, error) {
	if open == nil {
		open = osOpen
	}
	f, err := open(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Log, error) {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(0); err != nil {
		return fail(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fail(err)
	}
	if err := WriteHeader(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	return &Log{f: f, path: path, size: headerSize}, nil
}

// Size returns the committed length of the log file in bytes.
func (l *Log) Size() int64 { return l.size }

// Poisoned returns nil while the log can append, and otherwise an error
// (matching ErrPoisoned) describing the fault that disabled it.
func (l *Log) Poisoned() error {
	if l.poisoned == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrPoisoned, l.poisoned)
}

// poison disables appends; the first cause wins.
func (l *Log) poison(cause error) {
	if l.poisoned == nil {
		l.poisoned = cause
	}
}

// rewind restores the committed-prefix invariant after a failed append: the
// torn tail is truncated away, the truncation is made durable, and the file
// is repositioned for the next record. Any failure here means the on-disk
// state is unknowable.
func (l *Log) rewind() error {
	if err := l.f.Truncate(l.size); err != nil {
		return fmt.Errorf("truncating to committed offset %d: %w", l.size, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("fsyncing truncation to offset %d: %w", l.size, err)
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		return fmt.Errorf("seeking to committed offset %d: %w", l.size, err)
	}
	return nil
}

// writeRecord writes and fsyncs one framed record at the current committed
// offset. It does not touch bookkeeping; the caller decides what a failure
// means.
func (l *Log) writeRecord(rec []byte) error {
	if n, err := l.f.Write(rec); err != nil || n < len(rec) {
		if err == nil {
			err = io.ErrShortWrite
		}
		return err
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	if l.met != nil {
		l.met.FsyncSeconds.Observe(time.Since(t0).Nanoseconds())
	}
	return nil
}

// recordPool recycles the framed-record buffers Append builds, so the
// group-commit flush path encodes each batch with zero steady-state
// allocation. Records are (frame + payload) built in one slice and written
// with one Write, preserving the torn-tail recovery semantic.
var recordPool = sync.Pool{New: func() any { return new([]byte) }}

// Append encodes, writes and fsyncs one batch. It returns only after the
// batch is durable. On a storage error it self-heals: rewind the file to
// the last committed offset (truncate + re-fsync, erasing any torn tail)
// and retry the record once. A fault the retry cannot clear poisons the
// log — the committed prefix on disk stays intact, but all further appends
// fail fast with ErrPoisoned until the owner rebuilds via Create.
func (l *Log) Append(b Batch) error {
	if l.poisoned != nil {
		return l.Poisoned()
	}
	if b.Seq <= l.lastSeq {
		return fmt.Errorf("wal: sequence %d not after %d", b.Seq, l.lastSeq)
	}
	recP := recordPool.Get().(*[]byte)
	rec := *recP
	if cap(rec) < frameSize {
		rec = make([]byte, frameSize, 512)
	}
	rec, err := AppendBatch(rec[:frameSize], b)
	if err != nil {
		recordPool.Put(recP)
		return err
	}
	*recP = rec[:0] // keep the (possibly grown) backing array for reuse
	defer recordPool.Put(recP)
	if _, err := SealRecord(rec); err != nil {
		return err
	}

	werr := l.writeRecord(rec)
	if werr != nil {
		if l.met != nil {
			l.met.Faults.Inc()
		}
		if rerr := l.rewind(); rerr != nil {
			l.poison(fmt.Errorf("append failed (%v) and repair failed: %v", werr, rerr))
			return l.Poisoned()
		}
		if werr2 := l.writeRecord(rec); werr2 != nil {
			if l.met != nil {
				l.met.Faults.Inc()
			}
			// Leave the committed prefix clean if the disk still lets us;
			// either way the log is done appending.
			if rerr := l.rewind(); rerr != nil {
				l.poison(fmt.Errorf("append retry failed (%v) and repair failed: %v", werr2, rerr))
			} else {
				l.poison(fmt.Errorf("append retry failed: %v", werr2))
			}
			return l.Poisoned()
		}
		if l.met != nil {
			l.met.Repairs.Inc()
		}
	}
	if l.met != nil {
		l.met.AppendBytes.Add(int64(len(rec)))
	}
	l.size += int64(len(rec))
	l.lastSeq = b.Seq
	l.lastAppend.Store(time.Now().UnixNano())
	return nil
}

// LastAppendNano returns the wall-clock instant (unixnano) of the last
// durable append, 0 before the first. On a leader whose followers ship the
// WAL, this is when the newest shippable batch became durable — the
// leader-side anchor for replication staleness.
func (l *Log) LastAppendNano() int64 { return l.lastAppend.Load() }

// Reset truncates the log back to its header after a snapshot has made its
// contents redundant (snapshot-then-truncate compaction). The sequence
// counter is retained in memory so appends stay strictly increasing; after
// a restart it is re-anchored by the snapshot's sequence number.
//
// Reset reports success only once the truncation is durable: if the
// post-truncate fsync (or the truncate itself) fails, the on-disk length is
// unknown, so the log is poisoned rather than left claiming a committed
// offset it cannot prove.
func (l *Log) Reset() error {
	if l.poisoned != nil {
		return l.Poisoned()
	}
	if err := l.f.Truncate(headerSize); err != nil {
		if l.met != nil {
			l.met.Faults.Inc()
		}
		l.poison(fmt.Errorf("reset truncate failed: %v", err))
		return l.Poisoned()
	}
	if err := l.f.Sync(); err != nil {
		if l.met != nil {
			l.met.Faults.Inc()
		}
		l.poison(fmt.Errorf("reset fsync failed: %v", err))
		return l.Poisoned()
	}
	if _, err := l.f.Seek(headerSize, io.SeekStart); err != nil {
		if l.met != nil {
			l.met.Faults.Inc()
		}
		l.poison(fmt.Errorf("reset seek failed: %v", err))
		return l.Poisoned()
	}
	l.size = headerSize
	return nil
}

// Close syncs and closes the log file. The sync means a clean shutdown's
// durability never depends on the kernel's writeback timing; it is skipped
// on a poisoned log, whose contents are already superseded (every batch it
// acked was fsynced individually, so nothing is lost either way).
func (l *Log) Close() error {
	var err error
	if l.poisoned == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
