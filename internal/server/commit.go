package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"rangecube/internal/ingest"
	"rangecube/internal/trace"
	"rangecube/internal/wal"
)

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
	if err := checkUpdates(s.cube.Shape(), ups); err != nil { // lock-free, as in handleUpdate
		return nil, fmt.Errorf("server: %w", err)
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
	// The shape is immutable, so the coalescing pass runs outside the lock.
	cells := wal.Coalesce(s.cube.Shape(), groups...)
	sp.Set("cells", strconv.Itoa(len(cells)))

	if len(cells) == 0 {
		return s.Seq(), nil
	}

	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	seq, err := s.commitLocked(ctx, cells)
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
// fsynced as seq+1 while readers run on, and then published by applyEpoch. A
// crash in between replays the batch at boot; a WAL failure returns before
// anything was applied anywhere, with the sequence unchanged. ctx carries the
// commit span; each phase records a child, so a slow commit's trace shows
// whether it waited on the disk or on readers.
func (s *Server) commitLocked(ctx context.Context, cells []wal.Update) (uint64, error) {
	b := wal.Batch{Seq: s.seq.Load() + 1, Updates: cells}
	var at, end int64 // the batch's record in the log
	if s.wal != nil {
		at = s.wal.Size()
		// One Append is one fsync for the whole group — the amortization the
		// pipeline exists for.
		wsp := trace.FromContext(ctx).Child("wal.append")
		err := s.wal.Append(b)
		if err != nil {
			wsp.SetError(err.Error())
		}
		wsp.End()
		if err != nil {
			return 0, err
		}
		s.sinceSnap++
		end = s.wal.Size()
	}
	s.met.writeLockHold.Observe(s.applyEpoch(ctx, b, at, end).Nanoseconds())

	if s.sinceSnap >= s.opts.CompactEvery {
		if err := s.compact(); err != nil {
			// The WAL still has everything; compaction will be retried on
			// the next batch.
			s.logf("%v", err)
		}
	}
	return b.Seq, nil
}

// applyEpoch publishes batch b, numbered one past this server's seq, in one
// hold of the write lock, released by defer so that a panicking apply leaves
// reads running. In order: the structures apply b, seq moves to b.Seq for
// lock-free readers, a logged server publishes walEnd and the offset at of
// b's record, which let GET /wal ship what was just applied, and a remote
// leader queues b for its shards' sender in the same hold that moves seq: a
// resync that captures seq S and calls RemoteEngine.Hold under the read lock
// then sees every batch above S reach the engine after its hold opened.
// Leader commits and replicated batches alike land here; the caller holds
// commitMu. It returns how long the lock was held.
func (s *Server) applyEpoch(ctx context.Context, b wal.Batch, at, end int64) time.Duration {
	sp := trace.FromContext(ctx)
	lsp := sp.Child("commit.lockwait")
	s.mu.Lock()
	lsp.End()
	held := time.Now()
	defer s.mu.Unlock()
	asp := sp.Child("structures.apply")
	s.applyCellsLocked(trace.NewContext(ctx, asp), b.Updates)
	asp.End()
	s.seq.Store(b.Seq)
	if s.wal != nil {
		s.walEnd.Store(end)
		s.walOffs = append(s.walOffs, at)
	}
	if snd := s.send; snd != nil {
		snd.mu.Lock()
		snd.queue = append(snd.queue, b)
		snd.mu.Unlock()
		snd.loop.wake()
	}
	return time.Since(held)
}

// applyCellsLocked applies one batch to the serving structures. The caller,
// applyEpoch, holds the write lock; sequencing and durability are its
// callers': the local commit path WAL-logs first, the replication path
// (ApplyReplicated) trusts the leader's log instead.
//
// Exactly one owner writes each logical cube cell (snapshots and recovery
// read the cube). A remote leader's shard processes hold their own slabs and
// are sent the batch by the sender, so the leader writes its cube itself and
// widens each shard's cell-value bounds, which must cover the batch before it
// is delivered; every other server's one-shard router serves the cube's array
// in place, and its Apply writes the cells.
func (s *Server) applyCellsLocked(ctx context.Context, cells []wal.Update) {
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
