package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"rangecube/internal/cube"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
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
// per item — a malformed selector, an unknown op or a panic in evaluation
// fails only its own slot.
type batchResult struct {
	Result *queryResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// batchSlot is one parsed, runnable batch item (region == nil marks a dead
// slot whose error is already recorded) and the place its answer is built.
type batchSlot struct {
	op     string
	region ndarray.Region
	resp   queryResponse
	cost   metrics.Counter
}

// evalSlots is the one read path: every GET /query (a batch of one) and every
// POST /query/batch lands here with its parsed slots. A count is answered from
// its region's volume; every other live slot goes into one Router.Answer, so
// a batch is one call against one cube state, and on a local router that call
// is the batch's one fork (localEngine.Answer).
//
// A local router answers under the read lock. A remote one answers without
// it: the scatter holds no leader state, and a read lock pinned across its
// network round trips would make every commit wait out the slowest shard
// before it could apply (the lock is write-preferring, so every later read
// would queue behind that commit in turn). It first waits for the delivery
// of the seq committed when the read began, so it sees every commit acked
// before it. Every shard stamps its answer with the seq it holds, and
// Router.Answer refuses answers whose stamps differ: a delivery ran between
// the exchanges. That answer is asked once more under the read lock, after
// the delivery of the leader's seq, so every shard that answers is at it.
//
// Answers land in results; an item whose evaluation panicked fails only its
// own slot. The returned error fails the whole request: a cancellation, a
// deadline, a shard's refusal, or a down shard under an op with no partial
// form abandoned the remaining answers.
func (s *Server) evalSlots(ctx context.Context, slots []batchSlot, results []batchResult) error {
	qs := make([]shard.Query, 0, len(slots))
	cs := make([]*metrics.Counter, 0, len(slots))
	for i := range slots {
		q := &slots[i]
		if q.region == nil {
			continue
		}
		// A zero-volume region has a defined answer shape — explicitly empty,
		// identity sum, no average — rather than NaN or a bogus extreme leaking
		// into the encoder. (The HTTP selector grammar cannot express an empty
		// region today; this guards direct callers and future grammars.)
		q.resp = queryResponse{Op: q.op, Volume: q.region.Volume()}
		q.resp.Empty = q.resp.Volume == 0
		if rop, ok := routerOp(q.op); ok {
			qs = append(qs, shard.Query{Op: rop, Region: q.region})
			cs = append(cs, &q.cost)
		}
	}
	var as []shard.Answer
	var err error
	// A batch of counts makes no call.
	remote, seq := s.send != nil, s.seq.Load()
	for locked := !remote; len(qs) > 0; locked = true {
		if locked {
			s.mu.RLock()
			seq = s.seq.Load()
		}
		if remote {
			err = s.awaitDelivery(ctx, seq)
		}
		if err == nil {
			as, err = s.router.Answer(ctx, qs, cs)
		}
		if locked {
			s.mu.RUnlock()
		}
		if locked || !errors.Is(err, shard.ErrSeqMismatch) {
			break
		}
		trace.StatsFrom(ctx).AddTorn()
	}
	if err != nil {
		return err
	}
	for i := range slots {
		q := &slots[i]
		if q.region == nil {
			continue
		}
		if _, ok := routerOp(q.op); !ok {
			q.resp.Value = int64(q.resp.Volume) // count
		} else {
			a := &as[0]
			as = as[1:]
			if errors.Is(a.Err, shard.ErrPanic) {
				s.logPanic(ctx, a.Err)
				results[i].Error = "internal error"
				continue
			}
			if a.Err != nil {
				return a.Err
			}
			s.setAnswer(&q.resp, *a)
		}
		q.resp.Accesses = q.cost.Total()
		// Bridge the paper's per-query cost counter into the live §8
		// histograms: the observers are pinned per op, so this is three atomic
		// histogram records, no label resolution.
		q.cost.Publish(s.met.costObs[q.op])
		results[i].Result = &q.resp
	}
	return nil
}

// logPanic counts and logs a query whose evaluation panicked; its client sees
// only a generic error.
func (s *Server) logPanic(ctx context.Context, err error) {
	s.met.panics.Inc()
	s.logf("server: rid=%s %v", RequestIDFrom(ctx), err)
}

// handleQueryBatch parses a JSON array of range queries and evaluates them
// through evalSlots under one epoch. Item-level failures (bad selector,
// unknown op, a panic in evaluation) are isolated to their slot.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var items []batchQuery
	if !s.decodeBody(w, r, "query batch", &items) {
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
	results := make([]batchResult, len(items))
	slots := make([]batchSlot, len(items))
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
		slots[i].op, slots[i].region = op, region
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

// regionFromSpecs resolves a name→selector map — a batch item's select, or
// GET /query's parameters — to a rank-domain region.
func (s *Server) regionFromSpecs(specs map[string]string) (ndarray.Region, error) {
	sels := make([]cube.Selector, 0, len(specs))
	for name, spec := range specs {
		sels = append(sels, selectorFromSpec(name, spec))
	}
	return s.cube.Region(sels...)
}
