package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"rangecube/internal/cube"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
	"rangecube/internal/shard"
	"rangecube/internal/trace"
)

// batchQuery is one element of a POST /query/batch request body (a JSON
// array). Select maps dimension names to the same selector grammar as the
// GET /query parameters: "lo..hi", "*", or a single value. Op defaults to
// "sum".
type batchQuery struct {
	Op     string            `json:"op"`
	Select map[string]string `json:"select"`
}

// batchResult is one element of the response array, in request order:
// either the query's answer or its error, never both. Errors are isolated
// per item — a malformed selector or unknown op fails only its own slot.
type batchResult struct {
	Result *queryResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	// err is how the slot's evaluation failed: errInternal (a panic) becomes
	// the item's Error, anything else fails the whole request.
	err error
}

// errInternal marks a batch item whose evaluation panicked; the panic is
// logged server-side and the client sees only a generic error.
var errInternal = errors.New("internal error")

// batchSlot is one parsed, runnable batch item (region == nil marks a dead
// slot whose error is already recorded).
type batchSlot struct {
	op     string
	region ndarray.Region
}

// evalSlots is the one read path: every GET /query (a batch of one) and every
// POST /query/batch lands here with its parsed slots, and here alone it is
// decided who answers — the remote tier's seq-stamped scatter (every slot
// that touches a shard), or the router under the read lock (one epoch
// for the whole batch, whatever updates are racing it). Answers land in
// results; an item whose evaluation panicked fails only its own slot. The
// returned error fails the whole request: a cancellation, a deadline or a
// down shard abandoned the remaining answers mid-flight.
func (s *Server) evalSlots(ctx context.Context, slots []batchSlot, results []batchResult) error {
	// Volume drives the pool's work estimate, so point lookups stay inline
	// while big scans fan out.
	work, live := 0, 0
	for i := range slots {
		if slots[i].region != nil {
			work += slots[i].region.Volume()
			live++
		}
	}
	if live == 0 {
		return nil
	}
	// The remote scatter runs before the read lock is taken, and takes every
	// slot that needs a shard: it holds no leader state, and a read lock
	// pinned across its network round trips would make every commit wait out
	// the slowest shard before it could apply (the lock is write-preferring,
	// so every later read would queue behind that commit in turn).
	// Consistency comes from the shards' seq stamps instead — see evalRemote.
	// What is left for the lock (counts, empty regions) reaches no shard.
	if s.remoteEngines != nil {
		live -= s.evalRemote(ctx, slots, results)
	}
	if live > 0 {
		s.mu.RLock()
		s.runSlots(ctx, slots, work, results)
		s.mu.RUnlock()
	}
	var fatal error
	for i := range results {
		switch err := results[i].err; {
		case err == nil:
		case errors.Is(err, errInternal):
			results[i].Error = errInternal.Error()
		default:
			fatal = err
		}
	}
	return fatal
}

// runSlots evaluates every runnable slot, a batch concurrently on the worker
// pool and a single query on the calling goroutine; the caller holds the
// read lock around the call.
func (s *Server) runSlots(ctx context.Context, slots []batchSlot, work int, results []batchResult) {
	if len(slots) == 1 {
		s.runSlot(ctx, slots[0], &results[0])
		return
	}
	parallel.For(len(slots), work+len(slots), func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if slots[i].region != nil {
				s.runSlot(ctx, slots[i], &results[i])
			}
		}
	})
}

// runSlot evaluates one slot into res.
func (s *Server) runSlot(ctx context.Context, q batchSlot, res *batchResult) {
	defer s.isolatePanic(ctx, q.op, q.region, &res.err)
	// One child span per evaluated item: evalSlot publishes the §8 cost
	// counters into it, so a slow batch's trace shows which item paid. There
	// is none (and no name to build) unless the request's trace is being
	// recorded.
	var sp *trace.Span
	if parent := trace.FromContext(ctx); parent.Recording() {
		sp = parent.Child("query." + q.op)
		ctx = trace.NewContext(ctx, sp)
	}
	resp, err := s.evalSlot(ctx, q)
	if err != nil {
		sp.SetError(err.Error())
		sp.End()
		res.err = err
		return
	}
	sp.End()
	res.Result = &resp
}

// isolatePanic, deferred around one item's evaluation, turns a panic into
// that item's errInternal: a panic on a pool goroutine would kill the process
// (the recovered middleware only guards the handler goroutine), so evaluation
// failures degrade to an item error.
func (s *Server) isolatePanic(ctx context.Context, op string, region ndarray.Region, err *error) {
	if p := recover(); p != nil {
		s.met.panics.Inc()
		s.logf("server: query (%s over %v) rid=%s panicked: %v", op, region, RequestIDFrom(ctx), p)
		*err = errInternal
	}
}

// handleQueryBatch parses a JSON array of range queries and evaluates them
// through evalSlots under one epoch. Item-level failures (bad selector,
// unknown op, a panic in evaluation) are isolated to their slot.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if s.awaitingState.Load() {
		s.writeAwaiting(w, r)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxUpdateBytes)
	var items []batchQuery
	if err := json.NewDecoder(r.Body).Decode(&items); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge, "query batch exceeds %d bytes", tooBig.Limit)
			return
		}
		s.writeError(w, r, http.StatusBadRequest, "decoding query batch: %v", err)
		return
	}
	if len(items) == 0 {
		s.writeError(w, r, http.StatusBadRequest, "empty query batch")
		return
	}
	if len(items) > maxBatchQueries {
		s.writeError(w, r, http.StatusRequestEntityTooLarge, "batch of %d queries exceeds the %d-query limit", len(items), maxBatchQueries)
		return
	}
	s.met.batchQueries.Observe(int64(len(items)))

	// Parse every item up front; only well-formed items are evaluated
	// (region == nil marks a dead slot).
	// Parsing is lock-free on every server that cannot accept a /state push:
	// its cube and dimensions are immutable, so a batch never queues behind
	// the commit path's write-preferring lock just to read them — that wait
	// would also tax remote-bound batches, which need the leader's lock only
	// for a retry. Only an AcceptState server (a shard process) takes a read
	// epoch here: a push may swap the cube, and a region parsed against the
	// old dimensions must never reach the new structures. (The lock is
	// dropped before evaluation, which pins its own epoch; same-shape state
	// copies keep old regions valid.)
	results := make([]batchResult, len(items))
	slots := make([]batchSlot, len(items))
	if s.opts.AcceptState {
		s.mu.RLock()
	}
	for i, q := range items {
		op := q.Op
		if op == "" {
			op = "sum"
		}
		if !validOp(op) {
			results[i].Error = fmt.Sprintf("unknown op %q (sum, count, avg, max, min)", op)
			continue
		}
		region, err := s.regionFromSpecs(q.Select)
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		slots[i] = batchSlot{op: op, region: region}
	}
	if s.opts.AcceptState {
		s.mu.RUnlock()
	}

	if err := s.evalSlots(r.Context(), slots, results); err != nil {
		s.writeCtxError(w, r, err)
		return
	}
	itemErrs := int64(0)
	for i := range results {
		if results[i].Error != "" {
			itemErrs++
		}
	}
	s.met.batchItemErrs.Observe(itemErrs)
	// A typed envelope, not map[string]any: the batch response is encoded on
	// every request, and map encoding sorts keys reflectively.
	s.writeJSON(w, r, http.StatusOK, batchEnvelope{Count: len(items), Results: results})
}

// batchEnvelope is the /query/batch response body.
type batchEnvelope struct {
	Count   int           `json:"count"`
	Results []batchResult `json:"results"`
}

// evalRemote answers, when the shard tier is remote, every slot that touches a
// shard — sum, avg, max and min over a non-empty region — through one
// Router.Answer: each shard process gets one scatter frame for the whole
// client batch, whatever the ops, instead of an exchange per item. Answered
// (or failed) slots are cleared so runSlots skips them; their count is
// returned.
//
// The first attempt runs without the leader's read lock. Every shard stamps
// its answer with the seq it holds, and Router.Answer refuses answers whose
// stamps differ: a commit's scatter ran between the exchanges. That attempt
// is retried once under the read lock. A commit scatters inside its
// write-lock hold, so no scatter can run during the retry, and every shard
// that answers it is at the leader's seq.
func (s *Server) evalRemote(ctx context.Context, slots []batchSlot, results []batchResult) int {
	idx := make([]int, 0, len(slots))
	qs := make([]shard.Query, 0, len(slots))
	for i := range slots {
		if rop, ok := routerOp(slots[i].op); ok && slots[i].region != nil && slots[i].region.Volume() > 0 {
			idx = append(idx, i)
			qs = append(qs, shard.Query{Op: rop, Region: slots[i].region})
		}
	}
	if len(qs) == 0 {
		return 0
	}
	store := make([]metrics.Counter, len(qs))
	counters := make([]*metrics.Counter, len(qs))
	for k := range counters {
		counters[k] = &store[k]
	}
	as, err := s.router.Answer(ctx, qs, counters)
	if errors.Is(err, shard.ErrSeqMismatch) {
		trace.StatsFrom(ctx).AddTorn()
		s.mu.RLock()
		as, err = s.router.Answer(ctx, qs, counters)
		s.mu.RUnlock()
	}
	for k, i := range idx {
		resp := queryResponse{Op: slots[i].op, Volume: slots[i].region.Volume(), Accesses: store[k].Total()}
		slots[i].region = nil
		// A scatter that failed as a whole (cancellation, a shard error that is
		// not absence) fails every slot like any abandoned evaluation; a down
		// shard fails only the slots with no partial form.
		if results[i].err = err; err == nil {
			results[i].err = as[k].Err
		}
		if results[i].err != nil {
			continue
		}
		s.setAnswer(&resp, as[k])
		store[k].Publish(s.met.costObs[resp.Op])
		results[i].Result = &resp
	}
	return len(idx)
}

// regionFromSpecs resolves a name→selector map to a rank-domain region
// (the batch-body form of parseRegion's URL parameters).
func (s *Server) regionFromSpecs(specs map[string]string) (ndarray.Region, error) {
	sels := make([]cube.Selector, 0, len(specs))
	for name, spec := range specs {
		sels = append(sels, selectorFromSpec(name, spec))
	}
	return s.cube.Region(sels...)
}
