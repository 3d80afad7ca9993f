package wal

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// ErrTruncated reports that a replication reader's resume offset lies
// beyond the log's current length: the log was reset under the reader
// (compaction, or degraded-mode recovery superseding a poisoned file), so
// the offset no longer names a record boundary and the reader must
// re-bootstrap from the snapshot that superseded the log.
var ErrTruncated = errors.New("wal: log truncated below resume offset")

// ScanFrom opens the log at path read-only and scans its committed prefix
// starting at byte offset off — the replication-stream read: followers call
// it repeatedly with the next offset a previous call returned (0 and
// headerSize both mean the first record). It validates the header, then
// returns the decoded batches plus the offset the committed prefix now ends
// at, which is where the next call resumes.
//
// ScanFrom is safe against a concurrent appender: Append writes each record
// with a single Write, so a tail read observes at most one torn record,
// which the CRC rejects — the scan ends at the last clean boundary and the
// next call picks the record up once it is whole. A file shorter than off
// means the log was reset; that returns ErrTruncated. (An in-process owner
// should prefer its generation counter for reset detection — a reset log
// can regrow past off before the reader looks.)
func ScanFrom(path string, off int64) (batches []Batch, next int64, err error) {
	t, err := OpenTailer(path, off)
	if err != nil {
		return nil, off, err
	}
	defer t.Close()
	batches, err = t.Next(math.MaxInt64)
	return batches, t.Offset(), err
}

// Tailer is a persistent replication reader: one open handle on the log,
// scanned incrementally with Next. It exists because the follower pumps
// call the stream once per commit — reopening and re-validating the file
// each time (ScanFrom) costs five syscalls per commit per replica, which
// at serving-tier commit rates is real CPU stolen from reads. A Tailer's
// steady-state Next is one fstat when the log has not grown, plus one seek
// and the record reads when it has.
//
// The handle stays valid across Reset, which truncates the file in place:
// a later Next sees the shrunken size and reports ErrTruncated exactly
// like ScanFrom. The same torn-tail guarantee applies — a concurrent
// Append is observed either not at all or as one CRC-rejected partial
// record, and the offset parks at the last clean boundary.
type Tailer struct {
	f   *os.File
	off int64
}

// OpenTailer opens the log at path read-only, validates its header, and
// positions the stream at byte offset off (0 and headerSize both mean the
// first record).
func OpenTailer(path string, off int64) (*Tailer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if err := readLogHeader(f); err != nil {
		f.Close()
		return nil, err
	}
	if off < headerSize {
		off = headerSize
	}
	return &Tailer{f: f, off: off}, nil
}

// Offset returns the byte offset the next Next resumes from — always a
// record boundary (or the clamped start the Tailer was opened at).
func (t *Tailer) Offset() int64 { return t.off }

// Next scans the log's committed prefix from the current offset, returning
// the newly visible batches and advancing the offset to the prefix's new
// end. It never reads at or past byte offset end: a durable record is on disk
// before its owner has applied it, so an owner that applies after the fsync
// passes the end offset it has published and the reader cannot run ahead of
// it (math.MaxInt64 reads whatever the file holds). A log that has not grown
// returns (nil, nil) after a single fstat; a log shorter than the offset
// returns ErrTruncated and the caller must re-bootstrap (the offset is no
// longer a record boundary).
func (t *Tailer) Next(end int64) ([]Batch, error) {
	info, err := t.f.Stat()
	if err != nil {
		return nil, err
	}
	end = min(end, info.Size())
	if end < t.off {
		return nil, fmt.Errorf("wal: %s ends at %d bytes, resume offset %d: %w", t.f.Name(), end, t.off, ErrTruncated)
	}
	if end == t.off {
		return nil, nil
	}
	if _, err := t.f.Seek(t.off, io.SeekStart); err != nil {
		return nil, err
	}
	batches, n, err := scanRecords(io.LimitReader(t.f, end-t.off))
	t.off += n
	return batches, err
}

// Close releases the handle. The Tailer is not usable afterwards.
func (t *Tailer) Close() error { return t.f.Close() }
