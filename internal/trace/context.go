// Request-scoped context plumbing. This lives in the trace package — not in
// internal/server — because the shard router and remote engines need it too
// and the dependency arrow must keep pointing away from the server.
package trace

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
)

type spanKey struct{}
type ridKey struct{}
type statsKey struct{}

// NewContext returns ctx carrying sp as the active span.
func NewContext(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// FromContext returns the active span, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// WithRequestID returns ctx carrying the request-correlation ID.
func WithRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridKey{}, rid)
}

// RequestID returns the request-correlation ID from ctx, or "".
func RequestID(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// Inject writes the request ID and — for recording traces only — the trace
// linkage headers onto an outbound request, so a downstream server's
// request span joins this trace as a child of the active span. The HTTP
// client calls this on every request it builds; un-traced contexts cost
// two value lookups.
func Inject(ctx context.Context, h http.Header) {
	if rid := RequestID(ctx); rid != "" {
		h.Set(HeaderRequestID, rid)
	}
	if sp := FromContext(ctx); sp.Recording() {
		h.Set(HeaderTraceID, sp.TraceID())
		h.Set(HeaderParentSpan, sp.SpanID())
	}
}

// Stats is the per-request accounting record the scatter layer fills in and
// the access log reports: how many shard sub-queries the request fanned out
// to, whether any answer came back partial, and how many gathers were asked
// again because the shards' seq stamps differed. A nil *Stats is valid and records nothing.
type Stats struct {
	fanout  atomic.Int64
	torn    atomic.Int64
	partial atomic.Bool
}

// WithStats attaches a fresh Stats record to ctx and returns both.
func WithStats(ctx context.Context) (context.Context, *Stats) {
	st := &Stats{}
	return context.WithValue(ctx, statsKey{}, st), st
}

// StatsFrom returns the request's Stats record, or nil.
func StatsFrom(ctx context.Context) *Stats {
	st, _ := ctx.Value(statsKey{}).(*Stats)
	return st
}

// AddFanout records n shard sub-queries.
func (st *Stats) AddFanout(n int) {
	if st != nil {
		st.fanout.Add(int64(n))
	}
}

// Fanout reports the accumulated shard sub-query count.
func (st *Stats) Fanout() int64 {
	if st == nil {
		return 0
	}
	return st.fanout.Load()
}

// SetPartial marks the request as having produced a partial answer.
func (st *Stats) SetPartial() {
	if st != nil {
		st.partial.Store(true)
	}
}

// Partial reports whether any answer in the request was partial.
func (st *Stats) Partial() bool {
	return st != nil && st.partial.Load()
}

// AddTorn records one gather asked again because the shards answered at
// different seqs.
func (st *Stats) AddTorn() {
	if st != nil {
		st.torn.Add(1)
	}
}

// Torn reports how many gathers were asked again.
func (st *Stats) Torn() int64 {
	if st == nil {
		return 0
	}
	return st.torn.Load()
}

// String renders the stats for log lines.
func (st *Stats) String() string {
	if st == nil {
		return "shards=0 partial=false"
	}
	return "shards=" + strconv.FormatInt(st.Fanout(), 10) +
		" partial=" + strconv.FormatBool(st.Partial())
}
