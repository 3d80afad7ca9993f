package server

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/shard"
	"rangecube/internal/trace"
	"rangecube/internal/wal"
)

// The remote shard tier: Options.ShardURLs turns the leader's router into a
// fleet of RemoteEngines, each speaking the Engine contract to a cubeserver
// shard process: reads as scatter frames on POST /shard/query, writes as the
// leader's seq-numbered log records on POST /shard/apply, state on POST
// /state. A shard is a follower of the leader's log restricted to its slab:
// it applies the records through ApplyReplicated, as a -join follower does,
// and stamps every answer with the seq it holds. The leader's cube and WAL
// stay authoritative — shard processes hold derived state the leader can
// regenerate at any time, which is what makes partial failure survivable:
// a shard that dies loses nothing, it just stops answering until the resync
// loop pushes its slab back (POST /state) and marks it up again.

// shardStateTimeout bounds one slab-state push. State bodies scale with the
// slab, so this is deliberately far looser than the per-query ShardTimeout.
const shardStateTimeout = 30 * time.Second

// maxStateBytes caps a POST /state body.
const maxStateBytes = 1 << 30

// initRemoteSharding builds the remote engines and the router over them.
// Called by buildRouter when ShardURLs is set; the state push happens later
// (newServer), after recovery has produced the cells to push.
func (s *Server) initRemoteSharding(m shard.Map) error {
	stats := &shard.RemoteStats{}
	// The map may clamp below the configured URL count (a tiny split
	// dimension cannot carry one slab per shard); surplus shard processes
	// simply never get a slab.
	engines := make([]shard.Engine, m.Shards())
	remotes := make([]*shard.RemoteEngine, m.Shards())
	for i, u := range s.opts.ShardURLs[:m.Shards()] {
		e := shard.NewRemoteEngine(i, u, shard.RemoteOptions{Timeout: s.opts.ShardTimeout, HTTPClient: s.dial, Stats: stats, Logf: s.logf})
		remotes[i], engines[i] = e, e
	}
	rt, err := shard.NewRouterEngines(m, engines, stats, s.logf)
	if err != nil {
		return err
	}
	s.router, s.remoteEngines = rt, remotes
	s.logf("server: %d remote shards along dimension %d (%s)", m.Shards(), m.Dim(), s.cube.Dimension(m.Dim()).Name())
	return nil
}

// eachEngine runs f for every remote engine at once, a goroutine each, so a
// slow or parked shard holds up no other, and returns when all have; a call
// that panics is logged, marks its engine down and wakes the resync loop.
func (s *Server) eachEngine(f func(i int, e *shard.RemoteEngine)) {
	var wg sync.WaitGroup
	for i, e := range s.remoteEngines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					s.logf("server: shard %d: state push panicked: %v\n%s", e.Shard(), v, debug.Stack())
					e.MarkDown(fmt.Errorf("state push panicked: %v", v))
					s.resync.wake()
				}
			}()
			f(i, e)
		}()
	}
	wg.Wait()
}

// resyncShard has the engine push shard e its slab of the leader's cube and
// mark it up. The slab, encoded from the cube's runs, its exact bounds and
// the engine's hold are taken at one seq in one hold of the read lock: the
// commits above it queue later (applyEpoch), so the engine holds them until
// its push has landed. A failed push leaves the engine down.
func (s *Server) resyncShard(e *shard.RemoteEngine) error {
	s.mu.RLock()
	a, m := s.cube.Data(), s.router.Map()
	slab := a.Bounds()
	slab[m.Dim()] = m.Slab(e.Shard())
	seq := s.seq.Load()
	body := persist.EncodeSnapshot(seq, a, slab)
	lo, hi := shard.ValueBounds(a, slab)
	e.Hold(seq, lo, hi)
	s.mu.RUnlock()

	ctx, cancel := context.WithTimeout(context.Background(), shardStateTimeout)
	defer cancel()
	if err := e.Sync(ctx, body, maxBodyBytes); err != nil {
		return err
	}
	s.met.resyncShard.Inc()
	s.logf("server: shard %d (%s) synced at seq %d (%d cells)", e.Shard(), e.URL(), seq, slab.Volume())
	return nil
}

// resyncTurn is one remote engine's place in the resync schedule: the
// earliest time of its next state push, and its backoff.
type resyncTurn struct {
	at time.Time
	b  backoff
}

// resyncDownShards is the resync loop's job: the down engines whose turn has
// come get a fresh state push at once, and one found up starts its schedule
// over. It returns the wait until the next turn, at most maxWait: a failed
// read marks an engine down without waking the loop, so a healthy tier is
// polled once a second.
func (s *Server) resyncDownShards(turns []resyncTurn) time.Duration {
	s.eachEngine(func(i int, e *shard.RemoteEngine) {
		switch t := &turns[i]; {
		case !e.Down():
			*t = resyncTurn{}
		case time.Now().Before(t.at):
		default:
			if err := s.resyncShard(e); err != nil {
				s.logf("server: shard %d resync failed: %v", e.Shard(), err)
				t.at = time.Now().Add(t.b.failed())
			} else {
				*t = resyncTurn{}
			}
		}
	})
	wait := maxWait
	for _, t := range turns {
		if !t.at.IsZero() {
			wait = min(wait, max(time.Until(t.at), 0))
		}
	}
	return wait
}

// sender delivers a remote leader's commits to its shards off the commit
// path: a commit is queued under the write lock and acked, the sender's loop
// sends the queue, and a read waits for the delivery covering its seq.
type sender struct {
	mu        sync.Mutex
	queue     []wal.Batch
	delivered uint64        // the last seq whose delivery finished, acked or failed
	advanced  chan struct{} // closed and replaced each time delivered moves
	loop      *loop         // runs deliver; a queued commit wakes it
}

// deliver is the sender loop's job: it sends the shards every queued commit,
// in exchanges of at most maxBodyBytes. A panic marks every remote engine
// down, and a delivery that leaves one down wakes the resync loop; either way
// no read waits on these commits any more.
func (s *Server) deliver() time.Duration {
	snd := s.send
	snd.mu.Lock()
	commits := snd.queue
	snd.queue = nil
	snd.mu.Unlock()
	if len(commits) == 0 {
		return idle
	}
	last := commits[len(commits)-1].Seq
	sent := false
	defer func() {
		down := false
		for _, e := range s.remoteEngines {
			if !sent { // a panic: what reached the shards is unknown
				e.MarkDown(fmt.Errorf("delivery through seq %d panicked", last))
			}
			down = down || e.Down()
		}
		if down {
			s.resync.wake()
		}
		snd.mu.Lock()
		close(snd.advanced)
		snd.delivered, snd.advanced = last, make(chan struct{})
		snd.mu.Unlock()
	}()
	sp := s.tracer.Root("shard.deliver")
	sp.Set("records", strconv.Itoa(len(commits)))
	defer sp.End()
	s.router.Deliver(trace.NewContext(context.Background(), sp), commits, maxBodyBytes)
	sent = true
	return idle
}

// awaitDelivery waits, within ctx, until a delivery through seq has finished.
// The sender takes no server lock, so the caller may hold the read lock.
func (s *Server) awaitDelivery(ctx context.Context, seq uint64) error {
	for {
		s.send.mu.Lock()
		done, advanced := s.send.delivered >= seq, s.send.advanced
		s.send.mu.Unlock()
		if done {
			return nil
		}
		select {
		case <-advanced:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// handleShardApply applies the leader's update records, sealed back to back
// as GET /wal serves them, through one ApplyReplicated, the apply a -join
// follower uses: records at or below the shard's seq are skipped. The whole
// body is checked first, so a refused one changes nothing: torn, garbled or
// naming a cell outside the slab gets 400; a gap in the seqs 409.
func (s *Server) handleShardApply(w http.ResponseWriter, r *http.Request) {
	bufP := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bufP)
	body, ok := s.readRequest(w, r, *bufP, "update records")
	if *bufP = body; !ok {
		return
	}
	// Reading a byte slice cannot fail, and the shape, read lock-free, is
	// pinned once the first push has landed (the placeholder guard).
	bs, n, _ := wal.ScanStream(bytes.NewReader(body))
	_, err := checkReplicated(s.cube.Shape(), bs)
	if n < int64(len(body)) || len(bs) == 0 {
		err = fmt.Errorf("%s: %d of %d bytes are whole records", r.URL.Path, n, len(body))
	}
	if err == nil {
		_, err = s.ApplyReplicated(bs)
	}
	switch {
	case errors.Is(err, errSeqGap):
		s.writeError(w, r, http.StatusConflict, "%v", err)
	case err != nil:
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
	}
}

// handleShardQuery answers one scatter frame (shard/frame.go): every
// sub-query a leader's client batch has for this shard, whatever the ops. It
// is a codec around evalSlots, the read path of GET /query and POST
// /query/batch: each item is a slot, the slots are one evaluation under one
// read epoch, and the answers are stamped with the seq it returns. An item
// whose evaluation panics fails alone, and every answer feeds the per-op §8
// cost observers. The decoder has bounded count, dimensionality and body
// before anything was allocated; a range outside the slab fails its item,
// checked without the lock because the placeholder guard pins the shape.
func (s *Server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	bufP := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bufP)
	body, ok := s.readRequest(w, r, *bufP, "scatter frame")
	if *bufP = body; !ok {
		return
	}
	payload, err := wal.OpenRecord(body)
	items, derr := shard.DecodeQueries(payload, maxBatchQueries)
	if err = cmp.Or(err, derr); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "scatter frame: %v", err)
		return
	}
	shape := s.cube.Shape()
	slots := make([]batchSlot, len(items))
	for i, it := range items {
		q := &slots[i]
		*q = batchSlot{op: it.Op.String(), rop: it.Op, region: it.Local}
		for j, rng := range it.Local {
			if len(it.Local) != len(shape) || rng.Hi >= shape[j] {
				q.err = "outside the slab"
			}
		}
	}
	seq, err := s.evalSlots(r.Context(), slots)
	if err != nil {
		s.writeCtxError(w, r, err)
		return
	}
	for i := range items {
		it, q := &items[i], &slots[i]
		it.Value, it.At, it.Cost = q.ans.value, q.ans.at, q.cost
		if q.err != "" {
			it.Err = errors.New(q.err) // the status byte; its text stays here
		}
	}
	out, err := wal.SealRecord(shard.AppendAnswers(body[:wal.FrameSize], seq, items))
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	*bufP = out // keeps an array the answer has grown
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(out)
}

// handleState accepts a pushed snapshot as this server's entire new state.
// Mounted only with Options.AcceptState — a shard process's slab is derived
// state the leader may replace wholesale; an authoritative server must never
// mount this.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxStateBytes)
	seq, cells, err := persist.ReadSnapshotSized(r.Body, min(r.ContentLength, maxStateBytes))
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "decoding state push: %v", err)
		return
	}
	if err := s.resetState(seq, cells); err != nil {
		s.writeError(w, r, http.StatusConflict, "%v", err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{"seq": seq, "cells": cells.Size()})
}

// resetState replaces the server's cube state with a replicated snapshot,
// whose cells the cube adopts, and rebuilds the router over it, all under
// one write epoch. A replica keeps no local log or snapshot (NewWithOptions
// and JoinLeader see to it), so there is no durability to re-anchor. A shape
// change is only legal while the server is still awaiting its first state
// (the placeholder cube has no meaning); afterwards the shape is pinned and
// a mismatched push is rejected. The follower pump also lands here when it
// re-bootstraps from the leader's /snapshot.
func (s *Server) resetState(seq uint64, cells *ndarray.Array[int64]) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	shape := cells.Shape()
	switch {
	case slices.Equal(s.cube.Shape(), shape):
		s.cube.Adopt(cells)
	case !s.awaitingState.Load():
		return fmt.Errorf("server: pushed state shape %v does not match cube %v", shape, s.cube.Shape())
	default:
		// First push: the placeholder gives way to a cube of the pushed
		// shape with canonical integer dimensions (value == rank), the frame
		// remote slab queries are phrased in.
		dims := make([]*cube.Dimension, len(shape))
		for j, n := range shape {
			dims[j] = cube.NewIntDimension(fmt.Sprintf("d%d", j), 0, n-1)
		}
		s.cube = cube.Over(cells, dims...)
	}
	if err := s.buildRouter(); err != nil {
		return err
	}
	s.seq.Store(seq)
	s.awaitingState.Store(false)
	s.logf("server: installed pushed state: shape %v, seq %d", shape, seq)
	return nil
}
