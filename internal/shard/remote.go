package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rangecube/internal/client"
	"rangecube/internal/core/batchsum"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/trace"
	"rangecube/internal/wal"
)

// RemoteStats aggregates the remote tier's failure handling across all of a
// router's engines, for the cube_shard_remote_* telemetry series.
type RemoteStats struct {
	// Errors counts down-markings: reads and scatters that exhausted their
	// retries and hedge against a shard, and records a shard refused.
	Errors atomic.Uint64
	// Hedges counts hedged duplicate requests launched after a primary
	// stalled past the hedge delay.
	Hedges atomic.Uint64
	// Partials counts sum answers degraded by at least one missing slab.
	Partials atomic.Uint64
}

// RemoteOptions tunes one RemoteEngine. The zero value is usable: 2s
// per-exchange deadline, one hedged retry after 100ms, http.DefaultClient.
type RemoteOptions struct {
	// Timeout bounds each read or scatter round trip (including the
	// retrying client's attempts and the hedge). 0 means 2s.
	Timeout time.Duration
	// HedgeAfter is how long the primary request may stall before one
	// hedged duplicate is launched; first success wins. 0 means Timeout/20;
	// negative disables hedging. Reads and update records hedge alike: a
	// record carries its seq, so the shard applies a duplicate once.
	HedgeAfter time.Duration
	// HTTPClient is what the engine dials through: a server passes the one
	// client it reaches every peer with. Nil means http.DefaultClient.
	HTTPClient *http.Client
	// Stats, when non-nil, receives the engine's error/hedge counts
	// (shared across a router's engines).
	Stats *RemoteStats
	// Logf receives operational lines (shard marked down). Nil discards.
	Logf func(format string, args ...any)
}

// RemoteEngine speaks the Engine contract to a cubeserver shard process in
// two RPCs: Answer is one binary scatter frame (frame.go) on POST
// /shard/query, whatever the ops it carries, and Deliver is sealed WAL
// records of the leader's batches on POST /shard/apply, numbered with the
// leader's seqs. The shard process serves its slab as a cube in the slab's own
// frame, so local regions and coordinates travel as they are.
//
// Partial-failure handling lives here: every round trip gets a per-shard
// deadline, a retry of transport errors and one hedged duplicate — a read is
// read-only and a record is applied once whatever reaches the shard twice —
// and a round trip that still fails marks the engine down. A down engine
// fails fast with ErrShardDown — no network attempts — until a resync (Hold,
// then Sync) pushes fresh slab state and marks it up. While down, CellBounds
// keeps widening under Widen so the missing-slab intervals stay valid against
// the leader's true state.
type RemoteEngine struct {
	shard int
	base  string // shard process base URL, no trailing slash
	opt   RemoteOptions
	cl    *client.Client

	downAt atomic.Int64 // unixnano of the up→down transition; 0 while up
	sendMu sync.Mutex   // the send order: Deliver, or Sync's flush, one at a time

	mu             sync.Mutex
	cellLo, cellHi int64
	seq            uint64      // the leader seq the shard acked last, or was pushed
	holding        bool        // a resync's hold is open (Hold to Sync)
	holdAt         uint64      // the seq of the held resync's slab
	held           []wal.Batch // the records Deliver kept meanwhile
}

// NewRemoteEngine builds the transport for shard i served at baseURL.
func NewRemoteEngine(i int, baseURL string, opt RemoteOptions) *RemoteEngine {
	if opt.Timeout <= 0 {
		opt.Timeout = 2 * time.Second
	}
	if opt.HedgeAfter == 0 {
		opt.HedgeAfter = opt.Timeout / 20
	}
	return &RemoteEngine{
		shard: i,
		base:  strings.TrimRight(baseURL, "/"),
		opt:   opt,
		// Few, fast attempts: the hedge and the leader's resync probe own
		// slow-failure handling; long client backoffs would just hold the
		// exchange past its deadline.
		cl: client.New(client.Options{MaxAttempts: 2, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, HTTPClient: opt.HTTPClient}),
	}
}

// Shard returns the shard index this engine serves.
func (e *RemoteEngine) Shard() int { return e.shard }

// URL returns the shard process's base URL.
func (e *RemoteEngine) URL() string { return e.base }

// Down reports whether the engine is marked down (failing fast).
func (e *RemoteEngine) Down() bool { return e.downAt.Load() != 0 }

// DownSince returns when the engine was marked down; zero while it is up.
func (e *RemoteEngine) DownSince() time.Time {
	if at := e.downAt.Load(); at != 0 {
		return time.Unix(0, at)
	}
	return time.Time{}
}

// Seq returns the leader seq the shard acked last, or was pushed.
func (e *RemoteEngine) Seq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// Hold opens a resync of the slab captured at seq, whose exact cell-value
// bounds it seeds (covering even if the push fails): until Sync, Deliver
// keeps its records. The caller captures and calls Hold under the lock in
// which its commits move seq and queue their batch, so every record above
// seq reaches Deliver after Hold. The engine is then its shard's one writer,
// in seq order. One resync at a time: Sync must follow.
func (e *RemoteEngine) Hold(seq uint64, cellLo, cellHi int64) {
	e.mu.Lock()
	e.cellLo, e.cellHi = cellLo, cellHi
	e.holding, e.holdAt, e.held = true, seq, nil
	e.mu.Unlock()
}

// Sync POSTs body, the slab at the held seq, to the shard's /state, sends the
// held records even though the engine is down, in exchanges of at most limit
// bytes, and only then marks it up: the slab at seq plus the records above
// it is the leader's slab (SUM is a group, PAPER §1). The POST holds no send
// order, so a parked push stalls no delivery. Seq moves to the held seq once
// the push lands. A failure marks the engine down. Only Sync ends the hold.
func (e *RemoteEngine) Sync(ctx context.Context, body []byte, limit int) error {
	defer e.unhold(false) // a failed or panicking push; else a no-op
	if _, err := e.once(ctx, e.base+"/state", body); err != nil {
		e.MarkDown(err)
		return err
	}
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	if err := e.send(ctx, e.unhold(true), limit, false); err != nil {
		return err
	}
	if e.downAt.Swap(0) != 0 {
		e.logf("shard %d (%s): marked up after resync", e.shard, e.base)
	}
	return nil
}

// unhold ends the hold and returns the records it kept; after a landed push
// the engine's seq moves to the held seq.
func (e *RemoteEngine) unhold(pushed bool) []wal.Batch {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pushed {
		e.seq = e.holdAt
	}
	held := e.held
	e.holding, e.held = false, nil
	return held
}

// MarkDown forces the down state; round-trip failures set it themselves. It
// leaves a hold open: a delivery in flight when it opened carries only
// records the push covers.
func (e *RemoteEngine) MarkDown(cause error) {
	if e.downAt.CompareAndSwap(0, time.Now().UnixNano()) {
		if e.opt.Stats != nil {
			e.opt.Stats.Errors.Add(1)
		}
		e.logf("shard %d (%s): marked down: %v", e.shard, e.base, cause)
	}
}

func (e *RemoteEngine) logf(format string, args ...any) {
	if e.opt.Logf != nil {
		e.opt.Logf(format, args...)
	}
}

func (e *RemoteEngine) CellBounds() (int64, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cellLo, e.cellHi
}

// Answer asks the shard every item in one exchange: one deadline, one hedge
// and one down-marking for the lot. A frame the shard refuses (4xx) or an
// answer that does not decode — an item it rejected, a version it does not
// speak — is a permanent error: the shard is up, so it is neither hedged nor
// marked down.
func (e *RemoteEngine) Answer(ctx context.Context, items []Item) error {
	if len(items) == 0 {
		return nil
	}
	// The request buffer is not pooled: a hedged duplicate may still be
	// sending it after the exchange has resolved.
	size := wal.FrameSize + frameHeader + len(items)*querySize(len(items[0].Local))
	req, err := wal.SealRecord(AppendQueries(make([]byte, wal.FrameSize, size), items))
	if err != nil {
		return err
	}
	data, err := e.roundTrip(ctx, "shard.query", "/shard/query", req, len(items), true)
	if err != nil {
		return err
	}
	payload, err := wal.OpenRecord(data)
	if err == nil {
		err = DecodeAnswers(payload, items)
	}
	if err != nil {
		return fmt.Errorf("shard %d answer: %w", e.shard, err)
	}
	return nil
}

// SumPart is one sub-query's answer from SumBatchFull: the exact sub-sum and
// its bounds.
type SumPart struct {
	Value, Lo, Hi int64
}

// SumBatchFull answers many local-frame sums in one Answer exchange; cs[k]
// (nillable, may be short) receives item k's reported cost. The benchmark's
// ladder times and meters the wire through it.
func (e *RemoteEngine) SumBatchFull(ctx context.Context, regions []ndarray.Region, cs []*metrics.Counter) ([]SumPart, error) {
	items := make([]Item, len(regions))
	for k, r := range regions {
		items[k] = Item{Op: OpSum, Local: r}
	}
	if err := e.Answer(ctx, items); err != nil {
		return nil, err
	}
	parts := make([]SumPart, len(items))
	for k := range items {
		parts[k] = SumPart{Value: items[k].Value, Lo: items[k].Lo, Hi: items[k].Hi}
		if k < len(cs) {
			cs[k].Merge(&items[k].Cost)
		}
	}
	return parts, nil
}

// Apply sends the shard one local-frame update batch as the record of the
// leader's next seq: Widen, then a one-record Deliver (one record goes in one
// exchange whatever the limit). A leader writes its shards by Router.Deliver;
// this is the one-batch path the benchmark times.
func (e *RemoteEngine) Apply(ctx context.Context, ups []batchsum.IntUpdate) error {
	b := wal.Batch{Seq: e.Seq() + 1, Updates: make([]wal.Update, len(ups))}
	for i, u := range ups {
		e.Widen(u.Delta)
		b.Updates[i] = wal.Update(u)
	}
	return e.Deliver(ctx, []wal.Batch{b}, 0)
}

// Widen widens the cell-value bounds, saturating, by a delta committed to the
// slab, delivered or not, so missing-slab intervals cover the leader's cells.
func (e *RemoteEngine) Widen(delta int64) {
	e.mu.Lock()
	if delta < 0 {
		e.cellLo, _ = addSat(e.cellLo, delta)
	} else {
		e.cellHi, _ = addSat(e.cellHi, delta)
	}
	e.mu.Unlock()
}

// Deliver sends the shard the leader's records bs (local frame, ascending
// seqs), sealed back to back as GET /wal serves them, in as few exchanges as
// keep each body within limit bytes (a record larger than limit goes alone).
// Each exchange is acked before the next is sent and advances the engine's
// seq. A refused body (a gap, a cell the shard does not hold) marks the
// engine down like a failed round trip, and nothing after it is sent. While
// a resync's hold is open, bs is kept for Sync to send after the push (the
// shard skips the records the push covers).
func (e *RemoteEngine) Deliver(ctx context.Context, bs []wal.Batch, limit int) error {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	e.mu.Lock()
	if e.holding {
		e.held = append(e.held, bs...)
		e.mu.Unlock()
		return nil
	}
	e.mu.Unlock()
	return e.send(ctx, bs, limit, true)
}

// send is Deliver's exchanges, in the send order its caller holds; a down
// engine fails fast only with failFast.
func (e *RemoteEngine) send(ctx context.Context, bs []wal.Batch, limit int, failFast bool) error {
	if len(bs) == 0 {
		return nil
	}
	var body []byte
	from := 0 // bs[from] is body's first record
	for k, b := range bs {
		at := len(body)
		var err error
		if body, err = wal.AppendBatch(append(body, make([]byte, wal.FrameSize)...), b); err == nil {
			_, err = wal.SealRecord(body[at:])
		}
		if err != nil {
			return err
		}
		if len(body) > limit && at > 0 {
			if err := e.deliver(ctx, body[:at], bs[from:k], failFast); err != nil {
				return err
			}
			// A new array: a hedged duplicate may still be reading the old.
			body, from = append([]byte(nil), body[at:]...), k
		}
	}
	return e.deliver(ctx, body, bs[from:], failFast)
}

// deliver is one exchange of send: body holds the records of bs.
func (e *RemoteEngine) deliver(ctx context.Context, body []byte, bs []wal.Batch, failFast bool) error {
	if _, err := e.roundTrip(ctx, "shard.scatter", "/shard/apply", body, len(bs), failFast); err != nil {
		e.MarkDown(err)
		return err
	}
	e.mu.Lock()
	e.seq = max(e.seq, bs[len(bs)-1].Seq)
	e.mu.Unlock()
	return nil
}

// permanentError marks a 4xx answer: the shard is healthy, the request is
// wrong, so neither hedging nor marking down applies.
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// roundTrip performs one logical POST of body, carrying items sub-queries or
// deltas, to the shard's route with the partial-failure machinery, traced as
// span name: fail fast when down (with failFast), a per-shard deadline, one
// hedged duplicate after the hedge delay (first success wins, the child
// context cancels the loser), and a down-marking on exhaustion. An attempt
// that panics fails the exchange with ErrPanic and leaves the engine up: the
// fault is the leader's.
func (e *RemoteEngine) roundTrip(ctx context.Context, name, route string, body []byte, items int, failFast bool) ([]byte, error) {
	sp := trace.FromContext(ctx).Child(name)
	sp.SetShard(e.shard)
	if sp != nil {
		sp.Set("items", strconv.Itoa(items))
	}
	defer sp.End()
	if failFast && e.Down() {
		sp.SetError("fast fail: shard marked down")
		return nil, fmt.Errorf("%w (shard %d marked down)", ErrShardDown, e.shard)
	}
	rctx, cancel := context.WithTimeout(trace.NewContext(ctx, sp), e.opt.Timeout)
	defer cancel()

	type result struct {
		data []byte
		err  error
	}
	ch := make(chan result, 2)
	attempt := func(actx context.Context) {
		var r result
		defer func() {
			if p := recover(); p != nil {
				r.err = fmt.Errorf("%w: POST %s to shard %d: %v", ErrPanic, route, e.shard, p)
				e.logf("shard %d (%s): POST %s panicked: %v\n%s", e.shard, e.base, route, p, stack())
			}
			ch <- r
		}()
		r.data, r.err = e.once(actx, e.base+route, body)
	}
	go attempt(rctx)
	var hedge <-chan time.Time
	if e.opt.HedgeAfter > 0 {
		t := time.NewTimer(e.opt.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	// The hedge gets its own span so a trace shows the duplicate request as
	// a distinct timed child; it ends when the round trip resolves (first
	// success wins, so the loser's remaining time is part of the story).
	var hedgeSpan *trace.Span
	defer func() { hedgeSpan.End() }()
	pending := 1
	var firstErr error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				return r.data, nil
			}
			var perm *permanentError
			if errors.As(r.err, &perm) || errors.Is(r.err, ErrPanic) {
				sp.SetError(r.err.Error())
				return nil, r.err
			}
			if firstErr == nil {
				firstErr = r.err
			}
			pending--
			if pending == 0 {
				if ctx.Err() != nil {
					// The caller abandoned the gather; that is not the
					// shard's failure.
					sp.SetError(ctx.Err().Error())
					return nil, ctx.Err()
				}
				e.MarkDown(firstErr)
				sp.Set("down", "true")
				sp.SetError(firstErr.Error())
				return nil, fmt.Errorf("%w: %v", ErrShardDown, firstErr)
			}
		case <-hedge:
			hedge = nil
			if e.opt.Stats != nil {
				e.opt.Stats.Hedges.Add(1)
			}
			hedgeSpan = sp.Child("shard.hedge")
			hedgeSpan.SetShard(e.shard)
			pending++
			go attempt(trace.NewContext(rctx, hedgeSpan))
		}
	}
}

// once is a single exchange through the retrying client; the response body
// is fully read so the connection returns to the keep-alive pool.
func (e *RemoteEngine) once(ctx context.Context, u string, body []byte) ([]byte, error) {
	resp, err := e.cl.Do(ctx, http.MethodPost, u, body)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := fmt.Sprintf("shard %d: POST %s: %s: %s", e.shard, u, resp.Status, firstLine(data))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, &permanentError{msg: msg}
		}
		return nil, fmt.Errorf("%s", msg)
	}
	return data, nil
}

// stack is the calling goroutine's stack, for the log line of a recovered
// panic.
func stack() []byte {
	buf := make([]byte, 64<<10)
	return buf[:runtime.Stack(buf, false)]
}

func firstLine(data []byte) string {
	s := strings.TrimSpace(string(data))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
