// Package ingest implements the server's async ingestion pipeline: a
// bounded-queue group-commit batcher in front of the §5 batch-update
// machinery. Concurrent writers enqueue point updates; a single flusher
// goroutine drains the queue until it is empty or the group is full, hands
// the whole group to one commit callback (which coalesces duplicate coordinates,
// appends ONE WAL batch with ONE fsync, and applies everything under ONE
// write-lock epoch), and fans the committed sequence number back out to
// the writers that asked to wait for it.
//
// The paper's §5 update model is what makes this safe: point updates are
// (location, value-to-add) pairs, so any interleaving of writers folds
// into one batch whose combined effect is order-independent — the flusher
// can merge groups freely without changing any answer.
//
// Durability is the writer's choice per submission:
//
//   - sync:  Submit returns a channel that delivers the Result after the
//     group's WAL fsync; an acked writer's update survives any crash.
//   - async: Submit returns immediately after enqueue with no channel;
//     a crash between enqueue and flush loses the update. Queue order is
//     FIFO, so an acked *sync* submission implies every earlier async
//     submission committed too.
//
// Backpressure is explicit: a full queue rejects with ErrQueueFull
// immediately (the HTTP layer maps it to 429) instead of queueing without
// bound or blocking the writer.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"time"

	"rangecube/internal/telemetry"
	"rangecube/internal/wal"
)

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity; the caller should shed load (HTTP 429) and let the client
// retry.
var ErrQueueFull = errors.New("ingest: queue full")

// ErrClosed is returned by Submit after Stop has begun; no new work is
// accepted while the queue drains.
var ErrClosed = errors.New("ingest: batcher closed")

// Update is one point update in the §5 (location, value-to-add) form: the
// log's own record, so a group is logged, applied and sent to the shards as
// the writers submitted it.
type Update = wal.Update

// Result is what a sync writer receives after its group commits. The
// three timestamps let a client (and the response JSON) decompose
// ingestion latency into queueing and commit time.
type Result struct {
	// Seq is the sequence number of the committed batch carrying this
	// writer's updates (the pre-existing sequence when the whole group
	// coalesced to zero and nothing needed committing).
	Seq uint64
	// Enqueued, Flushed and Committed are when the submission entered the
	// queue, when the flusher started its group's commit, and when the
	// commit (including the WAL fsync) finished.
	Enqueued  time.Time
	Flushed   time.Time
	Committed time.Time
	// Err is the commit failure, if any; every sync writer in the failed
	// group sees the same error. After an error the commit returned nothing
	// was applied; after a panic ("ingest: commit panicked") that is unknown.
	Err error
}

// CommitFunc durably commits one flushed group: it must coalesce the
// groups' updates, write them as one WAL batch with one fsync, apply them
// to every query structure under one write-lock epoch, and return the
// committed sequence number. It runs on the flusher goroutine only, so
// implementations need no locking against other commits. ctx carries
// observability (trace spans) only, never cancellation — a flushed group
// has sync writers waiting on its durability and must run to completion.
type CommitFunc func(ctx context.Context, groups [][]Update) (seq uint64, err error)

// Metrics carries the batcher's optional telemetry hooks. All fields may
// be nil (telemetry primitives no-op on nil receivers), as may the
// *Metrics itself.
type Metrics struct {
	// Flushes counts flushed groups — with a WAL attached this is the
	// fsync count, so Flushes vs update totals is the fsync amortization.
	Flushes *telemetry.Counter
	// CommitNanos observes, per group, the commit latency (coalesce + WAL
	// append + fsync + apply).
	CommitNanos *telemetry.Histogram
}

// Options configures a Batcher.
type Options struct {
	// QueueSize bounds the number of pending submissions; a full queue
	// rejects with ErrQueueFull. <=0 means 256.
	QueueSize int
	// MaxBatch caps the point updates collected into one flushed group;
	// the flusher commits as soon as a group reaches it. <=0 means 4096.
	MaxBatch int
	// Commit is the group commit callback; required.
	Commit CommitFunc
	// Metrics is the optional telemetry sink.
	Metrics *Metrics
	// Logf receives the value and stack of a commit that panicked; nil
	// means log.Printf.
	Logf func(format string, args ...any)
}

// Batcher is the bounded-queue group-commit pipeline. Create with New,
// feed with Submit from any number of goroutines, and Stop to drain.
type Batcher struct {
	opts Options

	mu     sync.RWMutex // guards closed vs concurrent Submit
	closed bool
	ch     chan *request
	done   chan struct{} // closed when the flusher exits
}

// request is one writer submission traveling through the queue.
type request struct {
	updates  []Update
	enqueued time.Time
	ack      chan Result // nil for async submissions
}

// New starts a batcher whose single flusher goroutine runs until Stop.
func New(opts Options) *Batcher {
	if opts.Commit == nil {
		panic("ingest: Options.Commit is required")
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = 256
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 4096
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	b := &Batcher{
		opts: opts,
		ch:   make(chan *request, opts.QueueSize),
		done: make(chan struct{}),
	}
	go b.run()
	return b
}

// Submit enqueues one writer's updates. With sync=true the returned
// channel delivers exactly one Result after the group's commit (buffered,
// never blocks the flusher); with sync=false the channel is nil and the
// returned enqueue time is the whole acknowledgment. The updates slice is
// retained until commit and must not be modified by the caller.
func (b *Batcher) Submit(updates []Update, sync bool) (<-chan Result, time.Time, error) {
	r := &request{updates: updates, enqueued: time.Now()}
	if sync {
		r.ack = make(chan Result, 1)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, time.Time{}, ErrClosed
	}
	select {
	case b.ch <- r:
		return r.ack, r.enqueued, nil
	default:
		return nil, time.Time{}, ErrQueueFull
	}
}

// Depth reports the submissions currently waiting in the queue — the
// number the HTTP layer turns into a Retry-After hint when shedding.
func (b *Batcher) Depth() int { return len(b.ch) }

// Stop rejects new submissions, drains and commits everything already
// queued, and waits for the flusher to exit. Safe to call more than once.
func (b *Batcher) Stop() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	close(b.ch)
	b.mu.Unlock()
	<-b.done
}

// run is the flusher: block for the first pending submission, gather more
// until MaxBatch updates are in hand or the queue is momentarily empty, then
// commit the group. Groups form while a commit is in flight, so the flusher
// never waits for arrivals.
func (b *Batcher) run() {
	defer close(b.done)
	for {
		first, ok := <-b.ch
		if !ok {
			return
		}
		group, open := b.gather(first)
		b.flush(group)
		if !open {
			return
		}
	}
}

// gather collects one group starting from first. It returns the group and
// whether the queue is still open (false once the closed channel drains).
func (b *Batcher) gather(first *request) ([]*request, bool) {
	group := []*request{first}
	total := len(first.updates)

	// Take everything already queued, no waiting.
	for total < b.opts.MaxBatch {
		select {
		case r, ok := <-b.ch:
			if !ok {
				return group, false
			}
			group = append(group, r)
			total += len(r.updates)
		default:
			return group, true
		}
	}
	return group, true
}

// flush commits one gathered group and fans the result out to its sync
// writers.
func (b *Batcher) flush(group []*request) {
	flushed := time.Now()
	groups := make([][]Update, len(group))
	for i, r := range group {
		groups[i] = r.updates
	}

	seq, err := b.commit(groups)
	committed := time.Now()

	if m := b.opts.Metrics; m != nil {
		m.Flushes.Inc()
		m.CommitNanos.Observe(committed.Sub(flushed).Nanoseconds())
	}
	for _, r := range group {
		if r.ack != nil {
			r.ack <- Result{
				Seq:      seq,
				Enqueued: r.enqueued, Flushed: flushed, Committed: committed,
				Err: err,
			}
		}
	}
}

// commit runs the commit callback on one group. A panic in it is the group's
// error, its stack logged: the group's writers are failed, and the flusher
// goes on to the next group.
func (b *Batcher) commit(groups [][]Update) (seq uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			b.opts.Logf("ingest: commit panicked: %v\n%s", p, debug.Stack())
			seq, err = 0, fmt.Errorf("ingest: commit panicked: %v", p)
		}
	}()
	return b.opts.Commit(context.Background(), groups)
}
