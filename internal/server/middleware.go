package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"rangecube/internal/trace"
)

// guard is one check serve's frame runs before a route's handler.
type guard uint8

const (
	// admit takes a slot of the admission semaphore or sheds the request with
	// 429 and a Retry-After hint. Shedding beats queueing here because a
	// queued range query holds memory and, once its client times out,
	// computes an answer nobody reads.
	admit guard = 1 << iota
	// deadline bounds the request context with QueryTimeout; the core scans
	// observe it at their cancellation checkpoints.
	deadline
	// placeholder answers 503 while a shard process awaits its first /state
	// push: the placeholder cube must never answer as if it were the slab. A
	// request that passes it needs no lock to read s.cube's shape and
	// dimensions: resetState swaps the cube under the write lock before it
	// stores awaitingState=false, so the request sees the final cube, and that
	// cube never moves again (a later push adopts its cells into it, or is
	// refused for another shape).
	placeholder
)

// route is one registered handler and the guards serve's frame runs before
// it (its own ServeHTTP runs none).
type route struct {
	http.HandlerFunc
	guards guard
}

// statusWriter records the committed status code and body size of a
// response, so the frame can account per-status metrics, emit access-log
// lines, and know whether a panic can still be converted into a 500. A
// handler that writes without an explicit WriteHeader has committed an
// implicit 200, and that is what status() reports.
type statusWriter struct {
	http.ResponseWriter
	code  int // 0 until the response is committed
	bytes int64
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.code == 0 {
		sw.code = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK // implicit WriteHeader(200)
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// status returns the committed status code, or 200 for a handler that
// returned without writing anything (net/http sends 200 on its behalf).
func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

// Flush forwards to the underlying writer when it supports streaming, so
// the frame does not silently break flushing.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// serve is the one request frame around every route of mux. It looks the
// route up once, and its pattern names the request's path label; a request
// no route matches is labelled "other" and gets the mux's own 404, 405 or
// redirect. The frame assigns the correlation ID (a sane client-supplied
// X-Request-Id, or a minted one, echoed on the response), starts the request
// span and the per-request Stats, and applies a deadline route's timeout, all
// in one r.WithContext. It then runs the route's guards and handler (run),
// and records the per-route request count, latency histogram, in-flight
// gauge and optional access or slow-query line. Every path — sheds,
// timeouts, placeholders and recovered panics included — therefore carries
// the request ID and lands in cube_http_requests_total under its real status.
func (s *Server) serve(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, pattern := mux.Handler(r)
		rt, routed := h.(route)
		path := "other"
		if routed {
			_, path, _ = strings.Cut(pattern, " ")
		}
		rid := clientRequestID(r.Header.Get(trace.HeaderRequestID))
		if rid == "" {
			rid = s.newRequestID()
		}
		w.Header().Set(trace.HeaderRequestID, rid)
		ctx := trace.WithRequestID(r.Context(), rid)

		// The request span: a fresh sampled root, or — when the wire headers
		// carry a caller's trace (a leader fanning out to this shard) — an
		// always-recorded child of the remote parent. The per-request Stats
		// record rides along for the scatter layer to fill in.
		sp := s.tracer.StartRequest(r.Method+" "+path, r.Header.Get)
		ctx, stats := trace.WithStats(ctx)
		if sp.Recording() {
			// Echo the trace ID so a caller (or the trace smoke test) can
			// find this request's tree in /debug/traces without parsing logs.
			w.Header().Set(trace.HeaderTraceID, sp.TraceID())
		}
		if rt.guards&deadline != 0 && s.opts.QueryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.QueryTimeout)
			defer cancel()
		}
		r = r.WithContext(trace.NewContext(ctx, sp))

		sw := &statusWriter{ResponseWriter: w}
		s.met.inflight.Inc()
		t0 := time.Now()

		aborted := false
		if routed {
			aborted = s.run(sw, r, rt)
		} else {
			mux.ServeHTTP(sw, r)
		}

		dur := time.Since(t0)
		s.met.inflight.Dec()
		status := sw.status()
		s.met.requests.With(r.Method, path, strconv.Itoa(status)).Inc()
		s.met.latency.With(path).Observe(dur.Nanoseconds())

		sp.SetStatus(strconv.Itoa(status))
		if status >= 500 {
			sp.SetError("HTTP " + strconv.Itoa(status))
		}
		if stats.Partial() {
			sp.SetPartial()
		}
		if n := stats.Fanout(); n > 0 {
			sp.Set("fanout", strconv.FormatInt(n, 10))
		}
		if n := stats.Torn(); n > 0 {
			sp.Set("torn_retries", strconv.FormatInt(n, 10))
		}
		sp.End()

		slow := s.opts.SlowQuery > 0 && dur >= s.opts.SlowQuery
		if s.opts.AccessLog || slow {
			traceField := ""
			if sp.Recording() || (sp != nil && slow) {
				// Sampled requests and slow exemplars both land in the trace
				// store; print the ID that finds them there.
				traceField = " trace=" + sp.TraceID()
			}
			line := fmt.Sprintf("%s %s %d %dB %s rid=%s %s%s",
				r.Method, r.URL.Path, status, sw.bytes, dur, rid, stats, traceField)
			if s.opts.AccessLog {
				s.logf("access: %s", line)
			}
			if slow {
				// The slow-query exemplar: one greppable line per
				// over-threshold request on the same stream as the access
				// log, emitted even when the access log is off.
				s.logf("slow-query: %s threshold=%s", line, s.opts.SlowQuery)
			}
		}
		if aborted {
			// The sentinel means "drop the connection on purpose"; net/http
			// handles it, and suppressing it would hide that.
			panic(http.ErrAbortHandler)
		}
	})
}

// run runs rt's guards, admission before the placeholder, then its handler.
// A panic becomes a logged 500 JSON response instead of a torn connection:
// one poisoned request must not read as an outage to every client sharing
// the connection pool. A panic with http.ErrAbortHandler is reported as
// aborted instead, for serve to re-raise once it has recorded the request.
func (s *Server) run(sw *statusWriter, r *http.Request, rt route) (aborted bool) {
	defer func() {
		v := recover()
		if aborted = v == http.ErrAbortHandler; v == nil || aborted {
			return
		}
		s.met.panics.Inc()
		s.logf("server: panic serving %s %s rid=%s: %v\n%s",
			r.Method, r.URL.Path, RequestIDFrom(r.Context()), v, debug.Stack())
		if sw.code == 0 {
			s.writeError(sw, r, http.StatusInternalServerError, "internal error")
		}
	}()
	if rt.guards&admit != 0 && s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.met.shed.Inc()
			sw.Header().Set("Retry-After", "1")
			s.writeError(sw, r, http.StatusTooManyRequests, "server at capacity (%d in flight)", cap(s.inflight))
			return
		}
	}
	if rt.guards&placeholder != 0 && s.awaitingState.Load() {
		sw.Header().Set("Retry-After", "1")
		s.writeError(sw, r, http.StatusServiceUnavailable, "awaiting state push from the leader")
		return
	}
	rt.HandlerFunc(sw, r)
	return false
}
