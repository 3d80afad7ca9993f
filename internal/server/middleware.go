package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"rangecube/internal/trace"
)

// statusWriter records the committed status code and body size of a
// response, so the outer middleware can account per-status metrics, emit
// access-log lines, and know whether a panic can still be converted into a
// 500. A handler that writes without an explicit WriteHeader has committed
// an implicit 200, and that is what status() reports.
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

// wrote reports whether any part of the response has been committed.
func (sw *statusWriter) wrote() bool { return sw.code != 0 }

// status returns the committed status code, or 200 for a handler that
// returned without writing anything (net/http sends 200 on its behalf).
func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

// Flush forwards to the underlying writer when it supports streaming, so
// wrapping a handler in telemetry does not silently break flushing.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrumented is the outermost middleware: it assigns the request its
// correlation ID (accepting a sane client-supplied X-Request-Id, minting one
// otherwise, echoing it on the response), wraps the writer so the final
// status and size are observable, and records the per-route request count,
// latency histogram, in-flight gauge and optional access-log line. Every
// inner path — including sheds, timeouts and recovered panics — therefore
// carries the request ID and lands in cube_http_requests_total under its
// real status code.
func (s *Server) instrumented(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := clientRequestID(r.Header.Get(trace.HeaderRequestID))
		if rid == "" {
			rid = s.newRequestID()
		}
		w.Header().Set(trace.HeaderRequestID, rid)
		ctx := trace.WithRequestID(r.Context(), rid)

		path := pathLabel(r.URL.Path)
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
		r = r.WithContext(trace.NewContext(ctx, sp))

		sw := &statusWriter{ResponseWriter: w}
		s.met.inflight.Inc()
		t0 := time.Now()

		next.ServeHTTP(sw, r)

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
	})
}

// recovered converts a panicking handler into a logged 500 JSON response
// instead of a torn connection — one poisoned request must not read as an
// outage to every client sharing the connection pool. It reuses the
// instrumented middleware's statusWriter when present so the 500 is
// attributed correctly.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, ok := w.(*statusWriter)
		if !ok {
			sw = &statusWriter{ResponseWriter: w}
		}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				// The sentinel means "drop the connection on purpose";
				// net/http handles it, and suppressing it would hide that.
				panic(v)
			}
			s.met.panics.Inc()
			s.logf("server: panic serving %s %s rid=%s: %v\n%s",
				r.Method, r.URL.Path, RequestIDFrom(r.Context()), v, debug.Stack())
			if !sw.wrote() {
				s.writeError(sw, r, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// limited applies the admission semaphore: a request either acquires a slot
// immediately or is shed with 429 and a Retry-After hint. Shedding beats
// queueing here because a queued range query holds memory and, once its
// client times out, computes an answer nobody reads.
func (s *Server) limited(next http.Handler) http.Handler {
	if s.inflight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			next.ServeHTTP(w, r)
		default:
			s.met.shed.Inc()
			w.Header().Set("Retry-After", "1")
			s.writeError(w, r, http.StatusTooManyRequests, "server at capacity (%d in flight)", cap(s.inflight))
		}
	})
}

// deadlined bounds the request context with the configured query timeout;
// the core scans observe it at their cancellation checkpoints.
func (s *Server) deadlined(next http.Handler) http.Handler {
	if s.opts.QueryTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.QueryTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
