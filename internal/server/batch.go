package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"rangecube/internal/cube"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/shard"
	"rangecube/internal/trace"
)

// batchSlot is one query of a batch — GET /query is a batch of one, and a
// scatter frame's item is one too — from its parse to its answer: its op and
// region, then its answer or its error. A slot whose err is set before
// evaluation is dead: it is answered with its error alone.
type batchSlot struct {
	op     string   // one of the five op names
	rop    shard.Op // the router op answering op; none for a count
	region ndarray.Region
	err    string
	ans    queryAnswer
	cost   metrics.Counter
}

// evalSlots is the one read path: every GET /query (a batch of one), every
// POST /query/batch and every scatter frame a shard answers (POST
// /shard/query) lands here with its parsed slots. A count is answered from its
// region's volume; every other live slot goes into one Router.Answer, so a
// batch is one call against one cube state, and on a local router that call
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
// Answers land in the slots; an item whose evaluation panicked fails only
// its own slot. It returns the seq the answers are of: the one read under the
// lock, or for a remote leader's lock-free answer the one whose delivery it
// awaited, which the shards' common stamp may have passed. The error fails
// the whole request: a cancellation, a deadline, a shard's refusal, or a down
// shard under an op with no partial form abandoned the remaining answers.
func (s *Server) evalSlots(ctx context.Context, slots []batchSlot) (uint64, error) {
	qs := make([]shard.Query, 0, len(slots))
	cs := make([]*metrics.Counter, 0, len(slots))
	for i := range slots {
		q := &slots[i]
		if q.err != "" {
			continue
		}
		// A zero-volume region has a defined answer shape — explicitly empty,
		// identity sum, no average — rather than NaN or a bogus extreme leaking
		// into the encoder. (The HTTP selector grammar cannot express an empty
		// region today; this guards direct callers and future grammars.)
		q.ans = queryAnswer{op: q.op, volume: q.region.Volume()}
		q.ans.empty = q.ans.volume == 0
		if q.op != "count" {
			qs = append(qs, shard.Query{Op: q.rop, Region: q.region})
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
		return 0, err
	}
	for i := range slots {
		q := &slots[i]
		if q.err != "" {
			continue
		}
		if q.op == "count" {
			q.ans.value = int64(q.ans.volume)
		} else {
			a := &as[0]
			as = as[1:]
			if errors.Is(a.Err, shard.ErrPanic) {
				s.logPanic(ctx, a.Err)
				q.err = "internal error"
				continue
			}
			if a.Err != nil {
				return 0, a.Err
			}
			q.ans.set(a)
		}
		q.ans.accesses = q.cost.Total()
		// Bridge the paper's per-query cost counter into the live §8
		// histograms: the observers are pinned per op, so this is three atomic
		// histogram records, no label resolution.
		q.cost.Publish(s.met.costObs[q.op])
	}
	return seq, nil
}

// logPanic counts and logs a query whose evaluation panicked; its client sees
// only a generic error.
func (s *Server) logPanic(ctx context.Context, err error) {
	s.met.panics.Inc()
	s.logf("server: rid=%s %v", RequestIDFrom(ctx), err)
}

// set shapes the router's answer to a.op into the answer: op=sum's value,
// §11 bounds and partial envelope, op=avg's sum over the volume, or an
// extreme and its cell.
func (q *queryAnswer) set(a *shard.Answer) {
	switch q.op {
	case "sum":
		q.value, q.bounded, q.lo, q.hi = a.Value, true, a.Lo, a.Hi
		q.partial, q.missing, q.unbounded = a.Partial(), a.Missing, a.Unbounded
	case "avg":
		if q.volume > 0 {
			q.average = float64(a.Value) / float64(q.volume)
		}
		q.value = a.Value
	default: // max, min
		if a.At == nil {
			q.empty = true
			break
		}
		q.value, q.at = a.Value, a.At
	}
}

// handleQueryBatch decodes a JSON array of range queries straight into their
// slots (batchBody), evaluates them through evalSlots under one epoch and
// encodes the answers by hand. Item-level failures (bad selector, unknown
// op, a panic in evaluation) are isolated to their slot.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	p := batchBodies.Get().(*batchBody)
	defer batchBodies.Put(p)
	body, ok := s.readRequest(w, r, p.buf, "query batch")
	if p.buf = body; !ok {
		return
	}
	// The cube pointer can move under a /state push only before the first
	// push lands (the placeholder guard); one read serves the request.
	c := s.cube
	n, err := p.decode(c)
	switch {
	case err != nil:
		s.writeError(w, r, http.StatusBadRequest, "decoding query batch: %v", err)
		return
	case n == 0:
		s.writeError(w, r, http.StatusBadRequest, "empty query batch")
		return
	case n > maxBatchQueries:
		s.writeError(w, r, http.StatusRequestEntityTooLarge, "batch of %d queries exceeds the %d-query limit", n, maxBatchQueries)
		return
	}
	s.met.batchQueries.Observe(int64(n))
	slots := p.slots(c)
	defer clear(slots) // the pooled slots keep no answer alive

	if _, err := s.evalSlots(r.Context(), slots); err != nil {
		s.writeCtxError(w, r, err)
		return
	}
	itemErrs := int64(0)
	for i := range slots {
		if slots[i].err != "" {
			itemErrs++
		}
	}
	s.met.batchItemErrs.Observe(itemErrs)
	s.writeEncoded(w, http.StatusOK, func(dst []byte) []byte { return appendBatch(dst, slots, c) })
}

// A /query/batch body is a JSON array of {"op":…,"select":{name:spec,…}}.
// batchBody decodes one by hand, straight into the batch's slots, where
// encoding/json allocated a map per item and the resolution boxed each
// value. It accepts and refuses what encoding/json does decoding the body
// into
//
//	[]struct {
//		Op     string            `json:"op"`
//		Select map[string]string `json:"select"`
//	}
//
// keys included: a key matches a field when bytes.EqualFold says so after
// unquoting, null leaves op as it was, makes select nil and an element the
// zero query, a field named twice decodes into what the first occurrence
// left (op: the last wins; select: the maps merge, the last spec of a name
// winning), other keys are skipped, and a body nested past encoding/json's
// 10,000 levels is refused. As for /update, anything but whitespace after the
// value is refused. Only the first maxBatchQueries items are kept; the rest
// are checked and counted.
//
// Strings are read from text, the body as a string, so a plain string is a
// substring of it and only one holding an escape or a non-ASCII byte is
// unquoted, by encoding/json. Each item keeps its selectors by dimension
// (selection); the regions are resolved once the whole body has decoded.
type batchBody struct {
	scanner
	text  string
	items []batchItem
	named []named // d per kept item
	spare batchItem
	done  []batchSlot // the slots' array
}

type batchItem struct {
	op  string
	sel selection
}

var (
	keyOp     = []byte("op")
	keySelect = []byte("select")
)

// batchBodies recycles what reading and decoding a batch needs; nothing a
// response keeps points into them.
var batchBodies = sync.Pool{New: func() any { return new(batchBody) }}

// decode parses p.buf into items over c's dimensions and returns how many
// the array holds.
func (p *batchBody) decode(c *cube.Cube) (int, error) {
	p.i, p.depth, p.text = 0, 0, string(p.buf)
	p.items, p.named = p.items[:0], p.named[:0]
	n := 0
	var err error
	if p.ws(); !p.null() {
		if p.peek() != '[' {
			return 0, p.fail("want an array of queries")
		}
		n, err = p.each(func(_ []byte, _ int) error { return p.item(c) })
	}
	if err != nil {
		return 0, err
	}
	if p.ws(); p.i < len(p.buf) {
		return 0, p.fail("data after the batch")
	}
	return n, nil
}

// item decodes one element of the array into the next item.
func (p *batchBody) item(c *cube.Cube) error {
	d := c.Dims()
	it := &p.spare
	if len(p.items) < maxBatchQueries {
		p.items = append(p.items, batchItem{})
		it = &p.items[len(p.items)-1]
		p.named = append(p.named, make([]named, d)...)
		it.sel.named = p.named[len(p.named)-d:]
	} else {
		it.sel.named = append(it.sel.named[:0], make([]named, d)...)
	}
	it.op = ""
	it.sel.clear()
	if p.null() {
		return nil
	}
	if p.peek() != '{' {
		return p.fail("a query: want an object")
	}
	_, err := p.each(func(key []byte, _ int) error {
		switch {
		case bytes.EqualFold(key, keyOp):
			if p.null() {
				return nil
			}
			op, err := p.value()
			if err == nil {
				it.op = op
			}
			return err
		case !bytes.EqualFold(key, keySelect):
			return p.skip()
		case p.null():
			it.sel.clear()
			return nil
		case p.peek() != '{':
			return p.fail("select: want an object")
		}
		_, err := p.each(func(key []byte, _ int) error {
			var name string
			if p.key.plain {
				name = p.text[p.key.start+1 : p.key.end-1]
			} else {
				name = string(key) // unquoted
			}
			spec := "" // what a null leaves in a map of strings
			if !p.null() {
				var err error
				if spec, err = p.value(); err != nil {
					return err
				}
			}
			it.sel.add(c, name, spec)
			return nil
		})
		return err
	})
	return err
}

// value decodes the string at p.i: a substring of text when it is plain.
func (p *batchBody) value() (string, error) {
	if p.peek() != '"' {
		return "", p.fail("want a string")
	}
	start, plain, err := p.quoted()
	switch {
	case err != nil:
		return "", err
	case plain:
		return p.text[start+1 : p.i-1], nil
	}
	return p.unquote(start)
}

// slots resolves the decoded items over c into the batch's slots: each
// item's op, and its region or its error.
func (p *batchBody) slots(c *cube.Cube) []batchSlot {
	d, n := c.Dims(), len(p.items)
	if cap(p.done) < n {
		p.done = make([]batchSlot, n)
	}
	slots := p.done[:n]
	ranges := make([]ndarray.Range, n*d)
	for k := range p.items {
		it, q := &p.items[k], &slots[k]
		it.sel.named = p.named[k*d : k*d+d]
		q.op = it.op
		if q.op == "" {
			q.op = "sum"
		}
		op, rop, ok := validOp(q.op)
		if !ok {
			q.err = fmt.Sprintf("unknown op %q (sum, count, avg, max, min)", q.op)
			continue
		}
		q.op, q.rop = op, rop
		q.region = ranges[k*d : k*d+d : k*d+d]
		if err := it.sel.resolve(c, q.region); err != nil {
			q.err, q.region = err.Error(), nil
		}
	}
	return slots
}

// named is one dimension's selector in a query: the spec last given for it
// and the position among the query's names at which it was first given;
// pos < 0 when the query does not name the dimension.
type named struct {
	spec string
	pos  int
}

// selection is one query's selectors as its request names them, by
// dimension, kept so that a bad one is reported in request order whatever
// order the request's own parse went in: the error of the first name the
// cube has no dimension for, or that a GET /query repeats, and each
// dimension's named.
type selection struct {
	named  []named // one per dimension
	bad    error   // nil when no name is bad
	badPos int
	next   int // the position of the next new name
}

// clear forgets every selector: what a null select does to the map.
func (sel *selection) clear() {
	for j := range sel.named {
		sel.named[j] = named{pos: -1}
	}
	sel.bad, sel.badPos, sel.next = nil, 0, 0
}

// add records name=spec. A dimension named again keeps its position and
// takes the new spec, as a map key does.
func (sel *selection) add(c *cube.Cube, name, spec string) {
	j, err := c.Index(name)
	if err != nil {
		sel.addBad(err)
		return
	}
	if sel.named[j].pos < 0 {
		sel.named[j].pos = sel.next
		sel.next++
	}
	sel.named[j].spec = spec
}

// addBad records the error of a bad name, if it is the first.
func (sel *selection) addBad(err error) {
	if sel.bad == nil {
		sel.bad, sel.badPos = err, sel.next
	}
	sel.next++
}

// resolve writes the region the selectors select into r, one range per
// dimension, all of it where a dimension is not named. Its error is that of
// the bad name or spec the request names first.
func (sel *selection) resolve(c *cube.Cube, r ndarray.Region) error {
	err, errPos := sel.bad, sel.badPos
	for j, nd := range sel.named {
		r[j] = ndarray.Range{Lo: 0, Hi: c.Dimension(j).Size() - 1}
		if nd.pos < 0 || err != nil && nd.pos > errPos {
			continue
		}
		rng, e := c.Dimension(j).Spec(nd.spec)
		if e != nil {
			err, errPos = e, nd.pos
			continue
		}
		r[j] = rng
	}
	return err
}

// ops are the supported query operators and the router op answering each:
// op=sum is the sum with §11 bounds and the partial envelope, op=avg an exact
// sum divided by the volume. A count has none: its region's geometry answers
// it alone.
var ops = [...]struct {
	name string
	rop  shard.Op
}{{"sum", shard.OpSumFull}, {"count", 0}, {"avg", shard.OpSum}, {"max", shard.OpMax}, {"min", shard.OpMin}}

// validOp returns the name of the supported query operator op names and its
// router op.
func validOp(op string) (string, shard.Op, bool) {
	for _, o := range ops {
		if op == o.name {
			return o.name, o.rop, true
		}
	}
	return "", 0, false
}
