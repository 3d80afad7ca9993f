package server

import (
	"net/http"
	"sort"
	"strconv"

	"rangecube/internal/trace"
)

// tracesResponse is the JSON shape of GET /debug/traces: the tracer's
// configuration, the retained spans grouped into trace trees (most recent
// first), and the slowest root spans still in the ring. Spans from remote
// shard processes live in *their* rings — a leader's response shows the
// leader-side view (gather span, per-shard RPC children, hedges); correlate
// by trace_id across processes for the full picture.
type tracesResponse struct {
	Sample float64      `json:"sample"`
	Store  int          `json:"store"`
	SlowNS int64        `json:"slow_threshold_ns"`
	Spans  int          `json:"spans"`
	Traces []traceGroup `json:"traces"`
	// Slowest lists root spans by descending duration — the exemplars a
	// slow-query investigation starts from.
	Slowest []trace.SpanData `json:"slowest"`
}

type traceGroup struct {
	TraceID string           `json:"trace_id"`
	Spans   []trace.SpanData `json:"spans"`
}

// handleTraces serves the in-memory trace ring as JSON. The snapshot is
// lock-free on the write path, so hitting this endpoint during an incident
// does not slow the queries being investigated; it is registered outside the
// admission semaphore for the same reason.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.writeError(w, r, http.StatusNotFound, "tracing disabled (start with a non-negative trace sample rate)")
		return
	}
	spans := s.tracer.Snapshot()

	// Group by trace ID preserving snapshot (start-time) order within each
	// tree; order groups by their most recent span so the freshest trace
	// comes first.
	byID := make(map[string]*traceGroup)
	order := []*traceGroup{}
	latest := make(map[string]int64)
	for _, sp := range spans {
		g := byID[sp.TraceID]
		if g == nil {
			g = &traceGroup{TraceID: sp.TraceID}
			byID[sp.TraceID] = g
			order = append(order, g)
		}
		g.Spans = append(g.Spans, sp)
		if t := sp.StartUnixNS + sp.DurationNS; t > latest[sp.TraceID] {
			latest[sp.TraceID] = t
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		return latest[order[i].TraceID] > latest[order[j].TraceID]
	})

	slowest := make([]trace.SpanData, 0, len(spans))
	for _, sp := range spans {
		if sp.ParentID == "" {
			slowest = append(slowest, sp)
		}
	}
	sort.SliceStable(slowest, func(i, j int) bool {
		return slowest[i].DurationNS > slowest[j].DurationNS
	})
	const slowestN = 10
	if len(slowest) > slowestN {
		slowest = slowest[:slowestN]
	}

	if n := r.URL.Query().Get("n"); n != "" {
		if lim, err := strconv.Atoi(n); err == nil && lim >= 0 && lim < len(order) {
			order = order[:lim]
		}
	}

	resp := tracesResponse{
		Sample:  s.tracer.SampleRate(),
		Store:   s.tracer.StoreSize(),
		SlowNS:  s.tracer.SlowThreshold().Nanoseconds(),
		Spans:   len(spans),
		Traces:  make([]traceGroup, 0, len(order)),
		Slowest: slowest,
	}
	for _, g := range order {
		resp.Traces = append(resp.Traces, *g)
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}
