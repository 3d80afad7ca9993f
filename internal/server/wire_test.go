package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// fault is what a wire's hook does with an exchange.
type fault int

const (
	pass    fault = iota // the handler runs and its response comes back
	refuse               // fails before the handler runs: a refused or reset connection
	loseAck              // the handler runs, then its response is lost on the way back
)

// wire is the tier tests' network: an http.RoundTripper that serves each
// request with the handler registered for its host, in the caller's
// goroutine, and returns what the handler wrote. Every server of a tier dials
// through client, and so do the tests. hook (nillable) sees every exchange
// first, with the request its handler will get: it may park it, or fail it
// before or after the handler runs. A host with no handler refuses;
// registering a new server at a host restarts it at the same address.
// Closing the wire ends every exchange's context, so a parked one returns.
type wire struct {
	client *http.Client
	hook   func(host string, r *http.Request) fault
	ctx    context.Context
	close  context.CancelFunc

	mu       sync.Mutex
	handlers map[string]http.Handler
	seen     map[string]int // exchanges by "host METHOD /path"
	changed  chan struct{}  // closed and replaced each time seen moves
}

func newWire(hook func(host string, r *http.Request) fault) *wire {
	w := &wire{hook: hook, handlers: map[string]http.Handler{}, seen: map[string]int{}, changed: make(chan struct{})}
	w.ctx, w.close = context.WithCancel(context.Background())
	w.client = &http.Client{Transport: w}
	return w
}

// serve registers h at host; a nil h takes the host down.
func (w *wire) serve(host string, h http.Handler) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.handlers[host] = h
}

func (w *wire) RoundTrip(r *http.Request) (*http.Response, error) {
	body := []byte{}
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(w.ctx, cancel)()
	// What the server's side of a connection would see.
	sr := r.Clone(ctx)
	sr.Body, sr.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	sr.Host, sr.RequestURI = r.URL.Host, r.URL.RequestURI()
	host, route := r.URL.Host, r.Method+" "+r.URL.Path

	w.mu.Lock()
	w.seen[host+" "+route]++
	close(w.changed)
	w.changed = make(chan struct{})
	w.mu.Unlock()
	f := pass
	if w.hook != nil {
		f = w.hook(host, sr)
	}
	w.mu.Lock() // after the hook: a parked exchange reaches a server restarted meanwhile
	h := w.handlers[host]
	w.mu.Unlock()
	if h == nil || f == refuse {
		return nil, fmt.Errorf("wire: dial %s: %w", host, syscall.ECONNREFUSED)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, sr)
	if f == loseAck {
		return nil, fmt.Errorf("wire: %s %s: %w", host, route, syscall.ECONNRESET)
	}
	return rec.Result(), nil
}

// count is how many route exchanges ("METHOD /path") host has seen.
func (w *wire) count(host, route string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seen[host+" "+route]
}

// await waits until host has seen n route exchanges.
func (w *wire) await(t testing.TB, host, route string, n int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		w.mu.Lock()
		got, changed := w.seen[host+" "+route], w.changed
		w.mu.Unlock()
		if got >= n {
			return
		}
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("%s saw %d %s exchanges, want %d", host, got, route, n)
		}
	}
}

// gate parks the exchanges a hook hands it until it opens. One parked past
// bound fails the gate's test, naming its host and route, and is refused, so
// a test whose read blocks before it opens its gate fails instead of hanging
// go test; once that test has ended, a gate reports nothing.
type gate struct {
	t       testing.TB
	bound   time.Duration
	arrived chan struct{} // a token per parked arrival, buffered past any count a test awaits
	release chan struct{}
	once    sync.Once
	mu      sync.Mutex
	ended   bool
}

func newGate(t testing.TB) *gate {
	g := &gate{t: t, bound: 10 * time.Second, arrived: make(chan struct{}, 64), release: make(chan struct{})}
	t.Cleanup(func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		g.ended = true
	})
	return g
}

// hold parks r until the gate opens, and refuses it if r's context ends or
// its bound passes first.
func (g *gate) hold(r *http.Request) fault {
	select {
	case g.arrived <- struct{}{}:
	default:
	}
	bound := time.NewTimer(g.bound)
	defer bound.Stop()
	select {
	case <-g.release:
		return pass
	case <-r.Context().Done():
		return refuse
	case <-bound.C:
		g.mu.Lock()
		defer g.mu.Unlock()
		if !g.ended {
			g.t.Errorf("gate: %s %s %s parked for %v and never released", r.Host, r.Method, r.URL.Path, g.bound)
		}
		return refuse
	}
}

// awaitArrival waits for the next parked arrival.
func (g *gate) awaitArrival(t testing.TB) {
	t.Helper()
	select {
	case <-g.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("no exchange reached the gate")
	}
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// reports is a test's testing.TB whose Errorf records instead of failing.
type reports struct {
	testing.TB
	mu   sync.Mutex
	msgs []string
}

func (r *reports) Errorf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func (r *reports) got() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.msgs)
}

// TestWire pins the wire's contract: an unregistered host fails like a
// refused dial; a parked exchange returns when released, fails when its
// context ends, and past its gate's bound fails its test unless that test
// has ended; a lost response means the handler ran and the caller saw a
// transport error; and the counts are exact under concurrent callers.
func TestWire(t *testing.T) {
	parked, held := newGate(t), newGate(t) // held never opens
	stuckTest := &reports{TB: t}
	stuck := newGate(stuckTest) // never opens
	stuck.bound = 20 * time.Millisecond
	var late *gate // a gate whose test ends while it parks an exchange
	var ran atomic.Int64
	w := newWire(func(host string, r *http.Request) fault {
		switch r.URL.Path {
		case "/park":
			return parked.hold(r)
		case "/hold":
			return held.hold(r)
		case "/stuck":
			return stuck.hold(r)
		case "/late":
			return late.hold(r)
		case "/lose":
			return loseAck
		}
		return pass
	})
	t.Cleanup(w.close)
	w.serve("h", http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		ran.Add(1)
		io.Copy(rw, r.Body)
	}))
	do := func(ctx context.Context, host, path string) (string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+host+path, bytes.NewReader([]byte(path)))
		if err != nil {
			return "", err
		}
		resp, err := w.client.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	bg := context.Background()
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"an unregistered host refuses", func() error {
			if _, err := do(bg, "nowhere", "/"); !errors.Is(err, syscall.ECONNREFUSED) || ran.Load() != 0 {
				return fmt.Errorf("err %v after %d handler runs, want a refused dial and none", err, ran.Load())
			}
			return nil
		}},
		{"a parked exchange returns when released", func() error {
			done := make(chan string, 1)
			go func() { b, _ := do(bg, "h", "/park"); done <- b }()
			parked.awaitArrival(t)
			select {
			case b := <-done:
				return fmt.Errorf("returned %q while parked", b)
			default:
			}
			parked.open()
			if b := <-done; b != "/park" {
				return fmt.Errorf("released, it answered %q", b)
			}
			return nil
		}},
		{"a parked exchange fails when its context ends", func() error {
			before := ran.Load()
			ctx, cancel := context.WithCancel(bg)
			errc := make(chan error, 1)
			go func() { _, err := do(ctx, "h", "/hold"); errc <- err }()
			held.awaitArrival(t)
			cancel()
			if err := <-errc; err == nil || ran.Load() != before {
				return fmt.Errorf("err %v after %d handler runs, want an error and none", err, ran.Load()-before)
			}
			return nil
		}},
		{"a parked exchange past its bound fails its test", func() error {
			before := ran.Load()
			if _, err := do(bg, "h", "/stuck"); !errors.Is(err, syscall.ECONNREFUSED) || ran.Load() != before {
				return fmt.Errorf("err %v after %d handler runs, want a refused dial and none", err, ran.Load()-before)
			}
			if got := stuckTest.got(); len(got) != 1 || !strings.Contains(got[0], "h POST /stuck") {
				return fmt.Errorf("the gate's test saw %q, want one error naming h POST /stuck", got)
			}
			return nil
		}},
		{"a gate reports nothing once its test has ended", func() error {
			lateTest := &reports{}
			errc := make(chan error, 1)
			t.Run("ends while parked", func(t *testing.T) {
				lateTest.TB = t
				late = newGate(lateTest)
				late.bound = 20 * time.Millisecond
				go func() { _, err := do(bg, "h", "/late"); errc <- err }()
				late.awaitArrival(t)
			})
			if err := <-errc; !errors.Is(err, syscall.ECONNREFUSED) {
				return fmt.Errorf("err %v, want a refused dial", err)
			}
			if got := lateTest.got(); len(got) != 0 {
				return fmt.Errorf("the ended test's gate reported %q", got)
			}
			return nil
		}},
		{"a lost response ran its handler", func() error {
			before := ran.Load()
			if _, err := do(bg, "h", "/lose"); !errors.Is(err, syscall.ECONNRESET) || ran.Load() != before+1 {
				return fmt.Errorf("err %v after %d handler runs, want a reset and one run", err, ran.Load()-before)
			}
			return nil
		}},
		{"counts are exact under concurrent callers", func() error {
			var wg sync.WaitGroup
			for range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range 25 {
						do(bg, "h", "/count")
					}
				}()
			}
			w.await(t, "h", "POST /count", 200)
			wg.Wait()
			if got := w.count("h", "POST /count"); got != 200 {
				return fmt.Errorf("8 callers × 25 exchanges counted %d", got)
			}
			return nil
		}},
	} {
		if err := c.run(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
