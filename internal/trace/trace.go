// Package trace is the repository's dependency-free distributed-tracing
// subsystem. A Tracer hands out Spans — cheap records with monotonic
// start/end timestamps, parent/span IDs and the paper's §8 cost components
// (cells/aux/steps) — and keeps finished spans in a fixed-size ring store
// that GET /debug/traces snapshots without locking writers out.
//
// The design borrows the telemetry package's nil discipline: a nil *Tracer
// and a nil *Span are valid everywhere and do nothing, so instrumented hot
// paths pay a nil check when tracing is off and sampled-out requests never
// allocate child spans.
//
// Sampling is head-based: the decision is made once, when the root span
// starts, and inherited by every child (including children on other
// processes, carried by the X-Trace-Id / X-Parent-Span headers). A root
// that was sampled out is still allocated — one small struct per request —
// so that slow, partial and error requests can be kept after the fact;
// such late-kept roots appear in the store without children, which is the
// usual head-sampling trade-off.
//
// This package also owns the request-scoped context plumbing that both
// internal/server and internal/shard need (the shard package must not
// import the server): the request ID, the active span, and the per-request
// Stats record the router fills in (shard fan-out, partial answers, gathers
// retried on a seq mismatch) for the access log.
package trace

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Wire headers. HeaderRequestID is the pre-existing request-correlation
// header; HeaderTraceID / HeaderParentSpan extend it to span linkage: a
// server receiving them starts its request span as a child of the remote
// parent, in the caller's trace.
const (
	HeaderRequestID  = "X-Request-Id"
	HeaderTraceID    = "X-Trace-Id"
	HeaderParentSpan = "X-Parent-Span"
)

// DefaultSample is the head-sampling rate when Options.Sample is zero:
// 1 in 100 requests records a full span tree.
const DefaultSample = 0.01

// DefaultStore is the ring capacity when Options.Store is zero.
const DefaultStore = 256

// DefaultSlow is the slow-query threshold when Options.Slow is zero: roots
// at least this slow are kept even when sampled out.
const DefaultSlow = 250 * time.Millisecond

// Options configures a Tracer.
type Options struct {
	// Sample is the head-based sampling rate in [0, 1]. Zero means
	// DefaultSample; a negative value disables tracing entirely (New
	// returns nil).
	Sample float64
	// Store is the ring-store capacity in spans. Zero means DefaultStore.
	Store int
	// Slow is the always-keep threshold: a root span at least this slow is
	// stored even when the head decision sampled it out. Zero means
	// DefaultSlow; negative disables the slow keep (errors and partial
	// answers are still always kept).
	Slow time.Duration
}

// Tracer mints spans and stores the finished ones. A nil *Tracer is valid
// and records nothing.
type Tracer struct {
	sample float64
	slow   time.Duration

	// ring is the fixed-size span store: next is a monotone ticket counter
	// and each finished span lands at next % len(ring) with an atomic
	// pointer store, so concurrent keepers never block each other and
	// Snapshot reads a consistent pointer per slot.
	ring []atomic.Pointer[Span]
	next atomic.Uint64

	// idState drives the splitmix64 ID/sampling stream, seeded from
	// crypto/rand so concurrent processes do not collide on trace IDs.
	idState atomic.Uint64
}

// New builds a Tracer, or returns nil (tracing disabled) when
// opts.Sample < 0.
func New(opts Options) *Tracer {
	if opts.Sample < 0 {
		return nil
	}
	if opts.Sample == 0 {
		opts.Sample = DefaultSample
	}
	if opts.Sample > 1 {
		opts.Sample = 1
	}
	if opts.Store <= 0 {
		opts.Store = DefaultStore
	}
	if opts.Slow == 0 {
		opts.Slow = DefaultSlow
	}
	t := &Tracer{
		sample: opts.Sample,
		slow:   opts.Slow,
		ring:   make([]atomic.Pointer[Span], opts.Store),
	}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		t.idState.Store(binary.LittleEndian.Uint64(seed[:]))
	}
	return t
}

// SampleRate reports the effective sampling rate (0 for a nil tracer).
func (t *Tracer) SampleRate() float64 {
	if t == nil {
		return 0
	}
	return t.sample
}

// StoreSize reports the ring capacity (0 for a nil tracer).
func (t *Tracer) StoreSize() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// SlowThreshold reports the always-keep threshold (0 for a nil tracer).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil || t.slow < 0 {
		return 0
	}
	return t.slow
}

// id returns the next non-zero pseudo-random 64-bit ID (splitmix64 over an
// atomic counter: one atomic add per ID, no locks).
func (t *Tracer) id() uint64 {
	x := t.idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// sampled draws one head-sampling decision.
func (t *Tracer) sampled() bool {
	if t.sample >= 1 {
		return true
	}
	// 53 uniform mantissa bits; same construction math/rand uses.
	return float64(t.id()>>11)/(1<<53) < t.sample
}

// Root starts a new local trace: a parentless span with a fresh trace ID
// and a head-sampling decision. Returns nil on a nil tracer.
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, t.id(), 0, t.sampled())
}

// Adopt starts a request span inside a caller's trace (the wire headers
// carried traceID/parentID). The caller only propagates headers for traces
// it is recording, so adopted spans always record — this is also what lets
// an operator force a trace with a hand-set X-Trace-Id header.
func (t *Tracer) Adopt(name string, traceID, parentID uint64) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, traceID, parentID, true)
}

// StartRequest starts the span for one inbound HTTP request: adopted into
// the caller's trace when the wire headers are present and valid, a fresh
// sampled root otherwise. get is the request-header accessor (pass
// r.Header.Get).
func (t *Tracer) StartRequest(name string, get func(string) string) *Span {
	if t == nil {
		return nil
	}
	if tid, ok := ParseID(get(HeaderTraceID)); ok {
		pid, _ := ParseID(get(HeaderParentSpan))
		return t.Adopt(name, tid, pid)
	}
	return t.Root(name)
}

func (t *Tracer) newSpan(name string, traceID, parentID uint64, recording bool) *Span {
	return &Span{
		tr:        t,
		traceID:   traceID,
		spanID:    t.id(),
		parentID:  parentID,
		name:      name,
		start:     time.Now(), // carries the monotonic clock reading
		recording: recording,
		shard:     -1,
	}
}

// keep stores one finished span in the ring.
func (t *Tracer) keep(sp *Span) {
	slot := (t.next.Add(1) - 1) % uint64(len(t.ring))
	t.ring[slot].Store(sp)
}

// Span is one timed operation in a trace. A nil *Span is valid everywhere
// and records nothing, so instrumentation sites never branch on whether
// the request is being recorded.
type Span struct {
	tr        *Tracer
	traceID   uint64
	spanID    uint64
	parentID  uint64
	name      string
	start     time.Time
	recording bool

	mu      sync.Mutex
	dur     time.Duration
	ended   bool
	shard   int
	engine  string
	status  string
	errMsg  string
	partial bool
	cells   int64
	aux     int64
	steps   int64
	attrs   []attr
}

type attr struct{ k, v string }

// Recording reports whether this span's trace is being recorded (and so
// whether headers should be propagated and children created).
func (sp *Span) Recording() bool { return sp != nil && sp.recording }

// TraceID returns the span's trace ID as 16 hex digits ("" on nil).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return FormatID(sp.traceID)
}

// SpanID returns the span's own ID as 16 hex digits ("" on nil).
func (sp *Span) SpanID() string {
	if sp == nil {
		return ""
	}
	return FormatID(sp.spanID)
}

// Child starts a sub-span. Children are only materialised for recording
// traces — on a sampled-out (or nil) parent this returns nil and the whole
// subtree costs nothing.
func (sp *Span) Child(name string) *Span {
	if sp == nil || !sp.recording {
		return nil
	}
	return sp.tr.newSpan(name, sp.traceID, sp.spanID, true)
}

// SetShard records which shard the span's work targeted.
func (sp *Span) SetShard(n int) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.shard = n
	sp.mu.Unlock()
}

// SetEngine records the answering engine/algorithm label.
func (sp *Span) SetEngine(e string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.engine = e
	sp.mu.Unlock()
}

// SetStatus records a terminal status label (e.g. an HTTP status code).
func (sp *Span) SetStatus(st string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.status = st
	sp.mu.Unlock()
}

// SetError records a failure. An errored root span is always kept.
func (sp *Span) SetError(msg string) {
	if sp == nil || msg == "" {
		return
	}
	sp.mu.Lock()
	sp.errMsg = msg
	sp.mu.Unlock()
}

// SetPartial marks the span's answer as partial (missing shard slabs). A
// partial root span is always kept.
func (sp *Span) SetPartial() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.partial = true
	sp.mu.Unlock()
}

// ObserveCost accumulates the paper's §8 cost components onto the span; it
// implements metrics.Observer so a query engine's Counter can publish
// straight into the active span.
func (sp *Span) ObserveCost(cells, aux, steps int64) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.cells += cells
	sp.aux += aux
	sp.steps += steps
	sp.mu.Unlock()
}

// Set attaches one free-form string attribute.
func (sp *Span) Set(k, v string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, attr{k, v})
	sp.mu.Unlock()
}

// Duration reports the span's duration: the live elapsed time before End,
// the final duration after.
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.ended {
		return sp.dur
	}
	return time.Since(sp.start)
}

// End finishes the span and decides whether it is kept: recording spans
// always land in the ring; a sampled-out root is still kept when it
// errored, answered partially, or ran past the tracer's slow threshold.
// End is idempotent.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	sp.dur = time.Since(sp.start)
	keep := sp.recording
	if !keep && sp.parentID == 0 {
		keep = sp.errMsg != "" || sp.partial ||
			(sp.tr.slow > 0 && sp.dur >= sp.tr.slow)
	}
	sp.mu.Unlock()
	if keep {
		sp.tr.keep(sp)
	}
}

// SpanData is the JSON-renderable snapshot of one finished span, the
// /debug/traces element type. Durations are integer nanoseconds — there is
// no float anywhere a NaN could enter.
type SpanData struct {
	TraceID     string            `json:"trace_id"`
	SpanID      string            `json:"span_id"`
	ParentID    string            `json:"parent_id,omitempty"`
	Name        string            `json:"name"`
	StartUnixNS int64             `json:"start_unix_ns"`
	DurationNS  int64             `json:"duration_ns"`
	Shard       int               `json:"shard"` // -1 when not shard-scoped
	Engine      string            `json:"engine,omitempty"`
	Status      string            `json:"status,omitempty"`
	Error       string            `json:"error,omitempty"`
	Partial     bool              `json:"partial,omitempty"`
	Cells       int64             `json:"cells,omitempty"`
	Aux         int64             `json:"aux,omitempty"`
	Steps       int64             `json:"steps,omitempty"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// data copies the span into its export form.
func (sp *Span) data() SpanData {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	d := SpanData{
		TraceID:     FormatID(sp.traceID),
		SpanID:      FormatID(sp.spanID),
		Name:        sp.name,
		StartUnixNS: sp.start.UnixNano(),
		DurationNS:  sp.dur.Nanoseconds(),
		Shard:       sp.shard,
		Engine:      sp.engine,
		Status:      sp.status,
		Error:       sp.errMsg,
		Partial:     sp.partial,
		Cells:       sp.cells,
		Aux:         sp.aux,
		Steps:       sp.steps,
	}
	if sp.parentID != 0 {
		d.ParentID = FormatID(sp.parentID)
	}
	if len(sp.attrs) > 0 {
		d.Attrs = make(map[string]string, len(sp.attrs))
		for _, a := range sp.attrs {
			d.Attrs[a.k] = a.v
		}
	}
	return d
}

// Snapshot returns the ring's finished spans ordered oldest-first by start
// time. It never blocks span keepers; a span overwritten mid-snapshot
// simply appears in its newer slot only.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	out := make([]SpanData, 0, len(t.ring))
	for i := range t.ring {
		if sp := t.ring[i].Load(); sp != nil {
			out = append(out, sp.data())
		}
	}
	// The ring is already near-ordered (slots fill in keep order), so a
	// simple insertion sort settles the few out-of-place entries.
	sortSpans(out)
	return out
}

func sortSpans(s []SpanData) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].StartUnixNS < s[j-1].StartUnixNS; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// FormatID renders a span/trace ID as 16 lowercase hex digits.
func FormatID(id uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return hex.EncodeToString(b[:])
}

// ParseID parses a 16-hex-digit ID; ok is false for anything else
// (including zero, which is the wire encoding of "no ID").
func ParseID(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	var b [8]byte
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return 0, false
	}
	id := binary.BigEndian.Uint64(b[:])
	return id, id != 0
}
