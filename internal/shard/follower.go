package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/wal"
)

// Follower is an in-process read replica of the whole logical cube: it
// boots from a snapshot (or a clone of the leader's recovered state) and
// catches up by tailing the leader's WAL — the committed-prefix Scan is
// already exactly a replication stream, so a follower replays the same
// bytes crash recovery would. Each WAL batch applies atomically under the
// follower's write lock (one epoch, mirroring the leader's write-lock
// commit), so a reader holding the read lock can never observe a torn
// epoch; AppliedSeq advertises the last applied batch and is never ahead
// of the locked-in state.
//
// Followers index the replica with the same slab Router as the leader, so
// follower answers are bit-identical to leader answers at equal sequence
// numbers.
type Follower struct {
	id        int
	m         Map
	blockSize int
	fanout    int
	sumEngine string

	mu sync.RWMutex
	rt *Router

	applied atomic.Uint64 // seq of the last applied batch
	gen     atomic.Uint64 // WAL generation this replica is tailing
	offset  atomic.Int64  // next WAL byte offset to resume scanning from

	// The replication stream's persistent read handle, owned by CatchUp:
	// reopening the log on every commit notification costs five syscalls
	// per commit per replica, so the tailer is cached across calls and
	// dropped whenever it stops matching the follower (different path, a
	// Rebase moved the offset, or the log errored under it).
	tailMu   sync.Mutex
	tail     *wal.Tailer
	tailPath string
}

// NewFollower boots a replica from an in-memory state: a cube at sequence
// seq, tailing the WAL generation gen from byte offset. The server uses it
// at construction time, when the leader has just recovered and its state
// is the cheapest snapshot available. Like Rebase it takes a over — a
// one-shard replica serves it in place — so a caller that keeps using the
// array passes a copy.
func NewFollower(id int, a *ndarray.Array[int64], seq, gen uint64, offset int64, m Map, blockSize, fanout int, sumEngine string) (*Follower, error) {
	f := &Follower{id: id, m: m, blockSize: blockSize, fanout: fanout, sumEngine: sumEngine}
	if err := f.rebase(a, seq, gen, offset); err != nil {
		return nil, err
	}
	return f, nil
}

// OpenFollower boots a replica from on-disk artifacts: the checksummed
// snapshot (absent means an all-zero cube at seq 0) plus the WAL's
// committed prefix — the same recovery read path the leader uses, which is
// what the every-byte catch-up sweep certifies.
func OpenFollower(id int, snapPath, walPath string, shape []int, m Map, blockSize, fanout int, sumEngine string) (*Follower, error) {
	a, seq, err := LoadSnapshot(snapPath, shape)
	if err != nil {
		return nil, err
	}
	f, err := NewFollower(id, a, seq, 0, 0, m, blockSize, fanout, sumEngine)
	if err != nil {
		return nil, err
	}
	if _, err := f.CatchUp(walPath, math.MaxInt64); err != nil {
		return nil, err
	}
	return f, nil
}

// LoadSnapshot reads a persist snapshot into a fresh array of the given
// shape; a missing file is an empty cube at sequence 0 (first boot). The
// server's replication pump also uses it to re-bootstrap a follower after
// the WAL it was tailing is superseded.
func LoadSnapshot(path string, shape []int) (*ndarray.Array[int64], uint64, error) {
	a := ndarray.New[int64](shape...)
	fh, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return a, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer fh.Close()
	seq, cells, err := persist.ReadSnapshot(fh)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: follower snapshot %s: %w", path, err)
	}
	if !slices.Equal(cells.Shape(), shape) {
		return nil, 0, fmt.Errorf("shard: snapshot shape %v does not match cube %v", cells.Shape(), shape)
	}
	copy(a.Data(), cells.Data())
	return a, seq, nil
}

// ID returns the replica's index (its telemetry label).
func (f *Follower) ID() int { return f.id }

// AppliedSeq returns the sequence number of the last applied batch. The
// replica's locked-in state is always at least this fresh — never behind
// what it advertises.
func (f *Follower) AppliedSeq() uint64 { return f.applied.Load() }

// Gen returns the WAL generation the replica is synced to, and Offset the
// byte offset its next scan resumes from.
func (f *Follower) Gen() uint64   { return f.gen.Load() }
func (f *Follower) Offset() int64 { return f.offset.Load() }

// View pins the replica's current epoch for reading: it returns the router
// and a release func. Every query evaluated before release sees one
// consistent state — the epoch-consistent read the serving tier relies on.
func (f *Follower) View() (*Router, func()) {
	f.mu.RLock()
	return f.rt, f.mu.RUnlock
}

// Rebase resets the replica to a new base state (cube at seq, WAL
// generation gen, resume offset), taking a over — a one-shard replica serves
// it in place. The server pump calls it after the
// leader's WAL was reset — compaction or degraded-mode recovery superseded
// the old log, so the replica re-bootstraps from the snapshot that
// superseded it.
func (f *Follower) Rebase(a *ndarray.Array[int64], seq, gen uint64, offset int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rebase(a, seq, gen, offset)
}

// rebase rebuilds the router; the caller holds the write lock (or owns the
// follower exclusively during construction).
func (f *Follower) rebase(a *ndarray.Array[int64], seq, gen uint64, offset int64) error {
	rt, err := NewRouter(a, f.m, f.blockSize, f.fanout, f.sumEngine)
	if err != nil {
		return err
	}
	f.rt = rt
	f.applied.Store(seq)
	f.gen.Store(gen)
	f.offset.Store(offset)
	return nil
}

// ApplyBatches replays WAL batches in order. Batches at or below the
// applied sequence are skipped (already folded into the base state); each
// new batch applies atomically under the write lock and bumps the
// advertised sequence only after its epoch is fully in place. Returns how
// many batches were applied.
func (f *Follower) ApplyBatches(batches []wal.Batch) int {
	applied := 0
	for _, b := range batches {
		if b.Seq <= f.applied.Load() {
			continue
		}
		cells := make([]PointDelta, len(b.Updates))
		for i, u := range b.Updates {
			cells[i] = PointDelta{Coords: u.Coords, Delta: u.Delta}
		}
		f.mu.Lock()
		f.rt.Apply(context.Background(), cells)
		f.applied.Store(b.Seq)
		f.mu.Unlock()
		applied++
	}
	return applied
}

// CatchUp scans the WAL's committed prefix from the replica's resume
// offset up to byte offset end and applies what it finds, advancing the
// offset to the new end of prefix. end is the log end the leader has
// published: a record is durable before the leader applies it, and a replica
// that read past the published end would serve a state the leader does not
// yet show (math.MaxInt64 when no live leader owns the log). A torn or
// in-flight tail ends the scan silently (the next call resumes at the
// boundary); wal.ErrTruncated means the log was reset under the replica and
// the caller must Rebase from the snapshot. The underlying handle persists
// across calls (see Tailer); an error drops it so the next call reopens
// fresh.
func (f *Follower) CatchUp(walPath string, end int64) (int, error) {
	f.tailMu.Lock()
	defer f.tailMu.Unlock()
	if f.tail != nil && (f.tailPath != walPath || f.tail.Offset() != f.Offset()) {
		f.dropTailLocked()
	}
	if f.tail == nil {
		t, err := wal.OpenTailer(walPath, f.Offset())
		if err != nil {
			return 0, err
		}
		f.tail, f.tailPath = t, walPath
	}
	batches, err := f.tail.Next(end)
	if err != nil {
		f.dropTailLocked()
		return 0, err
	}
	n := f.ApplyBatches(batches)
	f.offset.Store(f.tail.Offset())
	return n, nil
}

// Close releases the replication stream's read handle. The follower's
// in-memory state stays queryable; a later CatchUp reopens the log.
func (f *Follower) Close() error {
	f.tailMu.Lock()
	defer f.tailMu.Unlock()
	f.dropTailLocked()
	return nil
}

// dropTailLocked discards the cached tailer; the caller holds tailMu.
func (f *Follower) dropTailLocked() {
	if f.tail != nil {
		f.tail.Close()
		f.tail = nil
	}
}
