package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"rangecube/internal/ingest"
	"rangecube/internal/shard"
	"rangecube/internal/trace"
	"rangecube/internal/wal"
)

// The flush path converts each committed group into a WAL batch. wal.Append
// encodes synchronously and does not retain the slice past the call, so the
// backing array is pooled instead of allocated fresh per batch.
var walUpsPool = sync.Pool{New: func() any { return new([]wal.Update) }}

// SubmitUpdates feeds point updates straight into the ingestion path,
// bypassing HTTP — the embedded-use API the benchmark harness drives. With
// sync=true the returned channel delivers exactly one Result after the
// group's durable commit; with sync=false the updates are acknowledged by
// enqueue and the channel is nil. A full queue returns ingest.ErrQueueFull;
// the caller should back off and retry. An update whose coordinates name no
// cell fails the whole submission with an error, as /update fails it with
// 400, and nothing of it is queued.
func (s *Server) SubmitUpdates(ups []ingest.Update, sync bool) (<-chan ingest.Result, error) {
	if err := s.refuseWrite(); err != nil {
		return nil, err
	}
	shape := s.cube.Shape() // lock-free, as in handleUpdate
	for i, u := range ups {
		if err := checkCoords(shape, u.Coords); err != nil {
			return nil, fmt.Errorf("server: update %d: %w", i, err)
		}
	}
	ack, _, err := s.batcher.Submit(ups, sync)
	if err != nil {
		return nil, err
	}
	return ack, nil
}

// commitGroups is the single commit point for update ingestion, called only
// as the batcher's CommitFunc. It coalesces the group through the §5 update
// model, appends one WAL batch with one fsync, applies everything to the
// router's structures under one write-lock epoch, and returns the committed
// sequence number.
//
// Coalescing merges duplicate coordinates additively (the §5
// value-to-add form is order-independent, so concurrent writers' deltas
// fold freely) and drops cells whose net delta is zero. A group that
// coalesces to nothing commits nothing: no WAL record, no sequence bump,
// no max/min-tree walk — the acked sequence is simply the
// current one, which recovery reproduces exactly because nothing was
// logged.
//
// The batcher's ctx is bare and never canceled: a group whose sync writers
// are waiting on durability must run to completion. The group roots its own
// sampled span, so the pipeline's fsync and apply phases are traceable
// without a request.
func (s *Server) commitGroups(ctx context.Context, groups [][]ingest.Update) (uint64, error) {
	if s.health.Load().halfApplied() {
		return 0, s.groupFailed(errCommitPanicked) // a group queued before the panic
	}
	defer func() {
		if p := recover(); p != nil {
			// The log may hold the batch and the cube only part of it: shed
			// writes and keep answering reads; a restart replays the log.
			// The flusher fails the group and logs the stack.
			s.transition(event{cause: errCommitPanicked})
			panic(p)
		}
	}()
	sp := s.tracer.Root("commit")
	defer sp.End()
	ctx = trace.NewContext(ctx, sp)

	raw := 0
	for _, g := range groups {
		raw += len(g)
	}
	sp.Set("groups", strconv.Itoa(len(groups)))
	sp.Set("raw_updates", strconv.Itoa(raw))
	// Offsets depend only on the cube's immutable shape/strides, so the
	// coalescing pass runs outside the lock.
	a := s.cube.Data()
	byOff := make(map[int]int, raw)
	// One coalesced update per cell: the net value-to-add after merging every
	// duplicate coordinate in the group.
	cells := make([]shard.PointDelta, 0, raw)
	for _, g := range groups {
		for i := range g {
			off := a.Offset(g[i].Coords...)
			if j, ok := byOff[off]; ok {
				cells[j].Delta += g[i].Delta
			} else {
				byOff[off] = len(cells)
				cells = append(cells, shard.PointDelta{Coords: g[i].Coords, Delta: g[i].Delta})
			}
		}
	}
	live := cells[:0]
	for _, c := range cells {
		if c.Delta != 0 {
			live = append(live, c)
		}
	}
	sp.Set("cells", strconv.Itoa(len(live)))

	if len(live) == 0 {
		return s.Seq(), nil
	}

	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	seq, err := s.commitLocked(ctx, live)
	if err != nil {
		sp.SetError(err.Error())
		s.groupFailed(err)
		if errors.Is(err, wal.ErrPoisoned) {
			// An unrepairable storage fault: flip to degraded read-only mode
			// and let the background probe rebuild durability. Later groups
			// are shed at submission, not dropped.
			s.transition(event{cause: err})
		}
		return 0, err
	}
	s.met.updateBatches.Inc()
	s.met.updateCells.Add(int64(raw))
	return seq, nil
}

// groupFailed logs a failed group once, in the commit path, and returns err.
// The error fans out to every sync writer in the group via their acks; the
// line keeps async writers' losses from being silent. The batcher logs a
// group whose commit panicked.
func (s *Server) groupFailed(err error) error {
	s.logf("server: group commit failed (seq stays %d): %v", s.Seq(), err)
	return err
}

// commitLocked commits one coalesced batch, durable first and applied
// second: the caller holds commitMu, under which the batch is appended and
// fsynced as seq+1 while readers run on, and the write lock is then held for
// the in-memory change alone — structure apply, then publishing the new seq
// and queueing the batch for the shards' sender — as one epoch. A crash in
// between replays the batch at boot; a WAL failure returns before anything
// was applied anywhere, with the sequence unchanged. ctx carries the commit
// span; each phase records a child, so a slow commit's trace shows whether
// it waited on the disk or on readers.
func (s *Server) commitLocked(ctx context.Context, cells []shard.PointDelta) (uint64, error) {
	sp := trace.FromContext(ctx)
	var at, end int64 // the batch's record in the log
	if s.wal != nil {
		at = s.wal.Size()
		// One Append is one fsync for the whole group — the amortization the
		// pipeline exists for.
		wupsP := walUpsPool.Get().(*[]wal.Update)
		wups := (*wupsP)[:0]
		for _, c := range cells {
			wups = append(wups, wal.Update{Coords: c.Coords, Delta: c.Delta})
		}
		wsp := sp.Child("wal.append")
		err := s.wal.Append(wal.Batch{Seq: s.seq.Load() + 1, Updates: wups})
		if err != nil {
			wsp.SetError(err.Error())
		}
		wsp.End()
		*wupsP = wups[:0]
		walUpsPool.Put(wupsP)
		if err != nil {
			return 0, err
		}
		s.sinceSnap++
		end = s.wal.Size()
	}

	lsp := sp.Child("commit.lockwait")
	s.mu.Lock()
	lsp.End()
	held := time.Now()
	seq := func() uint64 {
		defer s.mu.Unlock() // a panicking apply leaves reads running
		seq := s.seq.Load() + 1
		asp := sp.Child("structures.apply")
		s.applyCellsLocked(trace.NewContext(ctx, asp), cells)
		asp.End()
		// Publish the commit: seq for lock-free readers, and walEnd and the
		// record's offset, which let GET /wal at the record just applied.
		s.seq.Store(seq)
		s.walEnd.Store(end)
		if s.wal != nil {
			s.walOffs = append(s.walOffs, at)
		}
		if snd := s.send; snd != nil { // in the hold that bumps seq, as resyncShard's gate needs
			snd.mu.Lock()
			snd.queue = append(snd.queue, shard.Commit{Seq: seq, Cells: cells})
			snd.mu.Unlock()
			snd.loop.wake()
		}
		return seq
	}()
	s.met.writeLockHold.Observe(time.Since(held).Nanoseconds())

	if s.sinceSnap >= s.opts.CompactEvery {
		if err := s.compact(); err != nil {
			// The WAL still has everything; compaction will be retried on
			// the next batch.
			s.logf("%v", err)
		}
	}
	return seq, nil
}

// applyCellsLocked applies one coalesced batch to the serving structures.
// The caller holds the write lock and owns sequencing and durability — the local commit path WAL-logs first, the
// replication path (ApplyReplicated) trusts the leader's log instead.
//
// Exactly one owner writes each logical cube cell (snapshots and recovery
// read the cube). A remote leader's shard processes hold their own slabs and
// are sent the batch by the sender, so the leader writes its cube itself and
// widens each shard's cell-value bounds, which must cover the batch before it
// is delivered; every other server's one-shard router serves the cube's array
// in place, and its Apply writes the cells.
func (s *Server) applyCellsLocked(ctx context.Context, cells []shard.PointDelta) {
	if s.remoteEngines != nil {
		a, m := s.cube.Data(), s.router.Map()
		for _, c := range cells {
			a.Set(a.At(c.Coords...)+c.Delta, c.Coords...)
			s.remoteEngines[m.Owner(c.Coords[m.Dim()])].Widen(c.Delta)
		}
		return
	}
	s.router.Apply(ctx, cells)
}
