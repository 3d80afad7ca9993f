package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/wal"
)

// buildReplicationLog writes a WAL of k multi-cell batches (seq 1..k) and
// returns the log's byte size after each batch (index 0 = header only)
// plus the cube state after each sequence (index 0 = the zero cube).
func buildReplicationLog(t *testing.T, walPath string, shape []int, k int, rng *rand.Rand) (bounds []int64, states [][]int64) {
	t.Helper()
	l, err := wal.Create(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	mirror := ndarray.New[int64](shape...)
	states = append(states, append([]int64(nil), mirror.Data()...))
	bounds = append(bounds, l.Size())
	for seq := 1; seq <= k; seq++ {
		n := 1 + rng.Intn(4)
		ups := make([]wal.Update, n)
		for i := range ups {
			coords := make([]int, len(shape))
			for j, e := range shape {
				coords[j] = rng.Intn(e)
			}
			ups[i] = wal.Update{Coords: coords, Delta: int64(rng.Intn(41) - 20)}
			mirror.Set(mirror.At(coords...)+ups[i].Delta, coords...)
		}
		if err := l.Append(wal.Batch{Seq: uint64(seq), Updates: ups}); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, l.Size())
		states = append(states, append([]int64(nil), mirror.Data()...))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return bounds, states
}

func writeSnapshot(t *testing.T, path string, shape []int, seq uint64, data []int64) {
	t.Helper()
	a := ndarray.New[int64](shape...)
	copy(a.Data(), data)
	err := persist.WriteFileAtomic(path, func(w io.Writer) error {
		return persist.WriteSnapshot(w, seq, a)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkFollowerState compares every logical-cube cell of the follower's
// pinned view against want.
func checkFollowerState(t *testing.T, f *Follower, shape []int, want []int64, msg string, args ...any) {
	t.Helper()
	rt, release := f.View()
	defer release()
	a := ndarray.New[int64](shape...)
	copy(a.Data(), want)
	bad := -1
	ndarray.ForEachOffset(a, a.Bounds(), func(off int) {
		if bad >= 0 {
			return
		}
		coords := a.Coords(off, nil)
		if rt.Cell(coords) != want[off] {
			bad = off
		}
	})
	if bad >= 0 {
		coords := a.Coords(bad, nil)
		t.Fatalf("%s: cell %v = %d, want %d", fmt.Sprintf(msg, args...), coords, rt.Cell(coords), want[bad])
	}
}

// TestFollowerCatchUpEveryByte is the every-byte replication sweep: a
// follower boots from a mid-log snapshot against EVERY byte-length prefix
// of the leader's WAL. A prefix shorter than the header must fail cleanly;
// any longer prefix must boot, apply exactly the complete records it
// contains (never regressing below the snapshot), leave the replica
// bit-identical to the leader's state at that sequence, and park its
// resume offset on the last record boundary — so a torn tail is re-read,
// not skipped, by the next catch-up.
func TestFollowerCatchUpEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag + 0xca7c))
	shape := []int{6, 4}
	m, err := NewMapSlabs(shape, 0, []ndarray.Range{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 2}, {Lo: 3, Hi: 5}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "updates.wal")
	const batches = 8
	bounds, states := buildReplicationLog(t, walPath, shape, batches, rng)

	const snapSeq = 3
	snapPath := filepath.Join(dir, "cube.snap")
	writeSnapshot(t, snapPath, shape, snapSeq, states[snapSeq])

	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != bounds[batches] {
		t.Fatalf("log is %d bytes, last append reported %d", len(data), bounds[batches])
	}
	prefixPath := filepath.Join(dir, "prefix.wal")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(prefixPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := OpenFollower(0, snapPath, prefixPath, shape, m, 2, 2, "prefixsum")
		if int64(cut) < bounds[0] {
			if err == nil {
				t.Fatalf("prefix %d: booted from a header-less log", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("prefix %d: %v", cut, err)
		}
		complete := 0
		for complete < batches && bounds[complete+1] <= int64(cut) {
			complete++
		}
		wantSeq := complete
		if wantSeq < snapSeq {
			wantSeq = snapSeq
		}
		if got := f.AppliedSeq(); got != uint64(wantSeq) {
			t.Fatalf("prefix %d (%d complete records, snapshot seq %d): applied seq %d, want %d", cut, complete, snapSeq, got, wantSeq)
		}
		if got := f.Offset(); got != bounds[complete] {
			t.Fatalf("prefix %d: resume offset %d, want record boundary %d", cut, got, bounds[complete])
		}
		checkFollowerState(t, f, shape, states[wantSeq], "prefix %d", cut)
	}
}

// TestFollowerIncrementalTail proves catch-up is a resumable tail: each
// CatchUp applies only the records appended since the last one, and an
// already-synced replica applies nothing.
func TestFollowerIncrementalTail(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag + 0x7a17))
	shape := []int{5, 3}
	m, err := NewMap(shape, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "updates.wal")
	l, err := wal.Create(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mirror := ndarray.New[int64](shape...)
	f, err := NewFollower(0, mirror.Clone(), 0, 1, l.Size(), m, 2, 2, "blocked")
	if err != nil {
		t.Fatal(err)
	}
	append1 := func(seq uint64) {
		t.Helper()
		coords := []int{rng.Intn(5), rng.Intn(3)}
		d := int64(rng.Intn(9) + 1)
		if err := l.Append(wal.Batch{Seq: seq, Updates: []wal.Update{{Coords: coords, Delta: d}}}); err != nil {
			t.Fatal(err)
		}
		mirror.Set(mirror.At(coords...)+d, coords...)
	}
	append1(1)
	if n, err := f.CatchUp(walPath, l.Size()); err != nil || n != 1 {
		t.Fatalf("first catch-up applied %d (%v), want 1", n, err)
	}
	// A record the leader has made durable but not yet published is on disk
	// past the published end: the replica must not read it.
	published := l.Size()
	append1(2)
	if n, err := f.CatchUp(walPath, published); err != nil || n != 0 || f.Offset() != published {
		t.Fatalf("catch-up bounded below record 2 applied %d (%v) and parked at %d, want 0 at %d", n, err, f.Offset(), published)
	}
	append1(3)
	if n, err := f.CatchUp(walPath, l.Size()); err != nil || n != 2 {
		t.Fatalf("second catch-up applied %d (%v), want 2", n, err)
	}
	if n, err := f.CatchUp(walPath, l.Size()); err != nil || n != 0 {
		t.Fatalf("synced catch-up applied %d (%v), want 0", n, err)
	}
	if f.AppliedSeq() != 3 || f.Offset() != l.Size() {
		t.Fatalf("after tailing: seq %d offset %d, want 3 at %d", f.AppliedSeq(), f.Offset(), l.Size())
	}
	checkFollowerState(t, f, shape, mirror.Data(), "after incremental tail")
}

// TestFollowerRebaseAfterReset drives the WAL-superseded path: when the
// leader resets its log (compaction), a replica's next scan reports
// wal.ErrTruncated instead of silently misreading the regrown file, and a
// Rebase from the superseding snapshot re-synchronizes it.
func TestFollowerRebaseAfterReset(t *testing.T) {
	shape := []int{4, 4}
	m, err := NewMap(shape, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "updates.wal")
	l, err := wal.Create(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mirror := ndarray.New[int64](shape...)
	f, err := NewFollower(1, mirror.Clone(), 0, 1, l.Size(), m, 2, 2, "prefixsum")
	if err != nil {
		t.Fatal(err)
	}
	apply := func(seq uint64, x, y int, d int64) {
		t.Helper()
		if err := l.Append(wal.Batch{Seq: seq, Updates: []wal.Update{{Coords: []int{x, y}, Delta: d}}}); err != nil {
			t.Fatal(err)
		}
		mirror.Set(mirror.At(x, y)+d, x, y)
	}
	apply(1, 0, 0, 5)
	apply(2, 3, 3, 7)
	if _, err := f.CatchUp(walPath, l.Size()); err != nil {
		t.Fatal(err)
	}

	// Leader compacts: snapshot at seq 2, then the log is reset and grows
	// a new (shorter) committed prefix the old offset would misread.
	snapPath := filepath.Join(dir, "cube.snap")
	writeSnapshot(t, snapPath, shape, 2, mirror.Data())
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	apply(3, 1, 2, -4)

	if _, err := f.CatchUp(walPath, l.Size()); !errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("catch-up across a reset returned %v, want wal.ErrTruncated", err)
	}
	a, seq, err := LoadSnapshot(snapPath, shape)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Rebase(a, seq, 2, 0); err != nil {
		t.Fatal(err)
	}
	if n, err := f.CatchUp(walPath, l.Size()); err != nil || n != 1 {
		t.Fatalf("post-rebase catch-up applied %d (%v), want 1", n, err)
	}
	if f.Gen() != 2 || f.AppliedSeq() != 3 {
		t.Fatalf("after rebase: gen %d seq %d, want gen 2 seq 3", f.Gen(), f.AppliedSeq())
	}
	checkFollowerState(t, f, shape, mirror.Data(), "after rebase")
}

// TestFollowerEpochConsistency races readers against the replication
// apply loop: every batch touches BOTH shards, so a torn epoch (one shard
// applied, the other not) or an advertised sequence ahead of the locked-in
// state would break the invariant sum == 2·AppliedSeq observed under a
// pinned view. Run under -race this is also the locking proof for the
// follower read path.
func TestFollowerEpochConsistency(t *testing.T) {
	shape := []int{4, 3}
	m, err := NewMapSlabs(shape, 0, []ndarray.Range{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 3}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(0, ndarray.New[int64](shape...), 0, 1, 0, m, 2, 2, "prefixsum")
	if err != nil {
		t.Fatal(err)
	}
	const batches = 400
	full := ndarray.Region{{Lo: 0, Hi: 3}, {Lo: 0, Hi: 2}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeen uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				rt, release := f.View()
				applied := f.AppliedSeq()
				sum, err := rt.Sum(context.Background(), full, nil)
				release()
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if sum != int64(2*applied) {
					t.Errorf("torn epoch: advertised seq %d but cube sums to %d (want %d)", applied, sum, 2*applied)
					return
				}
				if applied < lastSeen {
					t.Errorf("advertised seq went backwards: %d after %d", applied, lastSeen)
					return
				}
				lastSeen = applied
			}
		}()
	}
	for seq := uint64(1); seq <= batches; seq++ {
		f.ApplyBatches([]wal.Batch{{Seq: seq, Updates: []wal.Update{
			{Coords: []int{0, int(seq % 3)}, Delta: 1}, // shard 0
			{Coords: []int{3, int(seq % 3)}, Delta: 1}, // shard 1
		}}})
	}
	close(done)
	wg.Wait()
	if f.AppliedSeq() != batches {
		t.Fatalf("applied %d batches, advertised %d", batches, f.AppliedSeq())
	}
	// Replays of already-applied sequences are skipped, not double-applied.
	if n := f.ApplyBatches([]wal.Batch{{Seq: 1, Updates: []wal.Update{{Coords: []int{0, 0}, Delta: 99}}}}); n != 0 {
		t.Fatalf("stale batch re-applied (%d)", n)
	}
}
