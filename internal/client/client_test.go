package client

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func newTestClient(srv *httptest.Server, opt Options) *Client {
	opt.HTTPClient = srv.Client()
	if opt.BaseBackoff == 0 {
		opt.BaseBackoff = time.Millisecond
	}
	if opt.MaxBackoff == 0 {
		opt.MaxBackoff = 4 * time.Millisecond
	}
	if opt.Rand == nil {
		opt.Rand = rand.New(rand.NewSource(1))
	}
	return New(opt)
}

// A server that sheds the first n requests then succeeds: the client must
// retry through the shed and return the eventual 200.
func TestRetriesThroughShedding(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	c := newTestClient(srv, Options{MaxAttempts: 5})
	var out struct{ OK bool }
	status, err := c.DoJSON(context.Background(), http.MethodGet, srv.URL, nil, &out)
	if err != nil || status != 200 || !out.OK {
		t.Fatalf("status=%d err=%v out=%+v", status, err, out)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d calls, want 4", got)
	}
}

// Non-retryable errors (400) return immediately with the body's message.
func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad region", http.StatusBadRequest)
	}))
	defer srv.Close()

	c := newTestClient(srv, Options{MaxAttempts: 5})
	status, err := c.DoJSON(context.Background(), http.MethodGet, srv.URL, nil, nil)
	if status != 400 || err == nil || !strings.Contains(err.Error(), "bad region") {
		t.Fatalf("status=%d err=%v", status, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("client retried a 400: %d calls", calls.Load())
	}
}

// Exhausted attempts return the last shed response's status and an error.
func TestAttemptExhaustion(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		http.Error(w, "degraded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := newTestClient(srv, Options{MaxAttempts: 3})
	status, err := c.DoJSON(context.Background(), http.MethodPost, srv.URL, map[string]int{"x": 1}, nil)
	if status != 503 || err == nil {
		t.Fatalf("status=%d err=%v, want 503 + error", status, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want MaxAttempts=3", calls.Load())
	}
}

// Retry-After is honored as a floor on the backoff: with a 1-second hint
// and a microsecond jitter window, the client must not fire the retry
// before the hint elapses — so with a context too short for the hint, it
// stops without burning the wait.
func TestRetryAfterIsFloorAndDeadlineBudget(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "2")
		http.Error(w, "degraded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := newTestClient(srv, Options{MaxAttempts: 5})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	status, err := c.DoJSON(ctx, http.MethodGet, srv.URL, nil, nil)
	if status != 503 || err == nil {
		t.Fatalf("status=%d err=%v", status, err)
	}
	// The deadline budget check must refuse the 2s wait rather than sleep
	// into the deadline: one attempt, fast return.
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1 (2s hint exceeds 100ms budget)", calls.Load())
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("client burned %v waiting past its budget", elapsed)
	}
}

// The request body must be re-sent intact on every attempt (fresh reader
// per try).
func TestBodyResentOnRetry(t *testing.T) {
	var calls atomic.Int64
	bodies := make(chan string, 4)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := make([]byte, 64)
		n, _ := r.Body.Read(b)
		bodies <- string(b[:n])
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	c := newTestClient(srv, Options{MaxAttempts: 3})
	if _, err := c.DoJSON(context.Background(), http.MethodPost, srv.URL, map[string]string{"k": "v"}, nil); err != nil {
		t.Fatal(err)
	}
	first, second := <-bodies, <-bodies
	if first != `{"k":"v"}` || second != first {
		t.Fatalf("bodies differ across retries: %q vs %q", first, second)
	}
}

// Jitter draws stay inside [floor, window) and are deterministic under a
// seeded source.
func TestBackoffBounds(t *testing.T) {
	c := New(Options{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond,
		Rand: rand.New(rand.NewSource(7))})
	for retry := 1; retry <= 6; retry++ {
		window := c.opt.BaseBackoff << (retry - 1)
		if window > c.opt.MaxBackoff {
			window = c.opt.MaxBackoff
		}
		for i := 0; i < 100; i++ {
			d := c.backoff(retry, 0)
			if d < 0 || d >= window {
				t.Fatalf("retry %d: backoff %v outside [0,%v)", retry, d, window)
			}
		}
		if hinted := c.backoff(retry, time.Second); hinted < time.Second {
			t.Fatalf("retry %d: hint not honored as floor: %v", retry, hinted)
		}
	}
}

// The Retry-After grammar (RFC 9110): delay-seconds, HTTP-date, garbage.
// The hint becomes a backoff floor, so both forms must parse and both must
// clamp — an unbounded hint would stall a caller for its whole deadline
// budget on one wait.
func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
	}{
		{"absent", "", 0},
		{"delta seconds", "7", 7 * time.Second},
		{"delta zero", "0", 0},
		{"delta negative", "-3", 0},
		{"delta clamped", "86400", maxRetryAfter},
		{"http date", now.Add(9 * time.Second).UTC().Format(http.TimeFormat), 9 * time.Second},
		{"http date past", now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0},
		{"http date clamped", now.Add(2 * time.Hour).UTC().Format(http.TimeFormat), maxRetryAfter},
		{"garbage", "soon", 0},
		{"garbage mixed", "12 parsecs", 0},
		{"float not delta", "1.5", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseRetryAfter(tc.v, now); got != tc.want {
				t.Fatalf("parseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
			}
		})
	}
}

// An HTTP-date hint flows through the full response path and still floors
// the backoff like a delta-seconds hint does.
func TestRetryAfterHTTPDateHeader(t *testing.T) {
	resp := &http.Response{Header: http.Header{}}
	resp.Header.Set("Retry-After", time.Now().Add(5*time.Second).UTC().Format(http.TimeFormat))
	d := retryAfter(resp)
	if d <= 3*time.Second || d > 5*time.Second {
		t.Fatalf("HTTP-date Retry-After parsed to %v, want ~5s", d)
	}
	c := New(Options{})
	if got := c.backoff(1, d); got < d {
		t.Fatalf("backoff %v below the server's %v hint", got, d)
	}
}

// A body's Content-Type says what it is: JSON from DoJSON, raw bytes (the
// tier's /state, /shard/query and /shard/apply bodies) from Do.
func TestContentTypeNamesTheBody(t *testing.T) {
	var got atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("Content-Type"))
	}))
	defer srv.Close()
	c := newTestClient(srv, Options{})
	if _, err := c.DoJSON(context.Background(), http.MethodPost, srv.URL, map[string]int{"a": 1}, nil); err != nil || got.Load() != "application/json" {
		t.Fatalf("DoJSON sent Content-Type %q (err %v), want application/json", got.Load(), err)
	}
	resp, err := c.Do(context.Background(), http.MethodPost, srv.URL, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Load() != "application/octet-stream" {
		t.Fatalf("Do sent Content-Type %q, want application/octet-stream", got.Load())
	}
}
