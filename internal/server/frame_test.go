package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/faultio"
	"rangecube/internal/ingest"
	"rangecube/internal/ndarray"
	"rangecube/internal/shard"
	"rangecube/internal/wal"
)

// routeCase is one of the 13 routes, a request to it, and the guards Handler
// registers it with.
type routeCase struct {
	method, target string
	body           []byte
	guards         guard
}

// everyRoute lists the 13 routes with requests a shard process of an 8×8
// slab can be sent. /state and /shard/apply get bodies they refuse, so no
// request of the table changes the server's state.
func everyRoute(t testing.TB) []routeCase {
	frame, err := wal.SealRecord(shard.AppendQueries(make([]byte, wal.FrameSize),
		[]shard.Item{{Op: shard.OpSum, Local: ndarray.Reg(0, 7, 0, 7)}}))
	if err != nil {
		t.Fatal(err)
	}
	query := admit | deadline | placeholder
	return []routeCase{
		{"GET", "/schema", nil, 0},
		{"GET", "/query?op=sum", nil, query},
		{"POST", "/query/batch", []byte(`[{"op":"sum"}]`), query},
		{"POST", "/shard/query", frame, query},
		{"POST", "/update", []byte(`{"updates":[{"coords":[0,0],"delta":1}]}`), admit},
		{"GET", "/healthz", nil, 0},
		{"GET", "/readyz", nil, 0},
		{"GET", "/wal", nil, 0},
		{"GET", "/snapshot", nil, 0},
		{"POST", "/state", []byte("not a snapshot"), 0},
		{"POST", "/shard/apply", []byte("not a record"), placeholder},
		{"GET", "/metrics", nil, 0},
		{"GET", "/debug/traces", nil, 0},
	}
}

// TestRouteGuards holds every route to its guards, one guard at a time, on a
// shard process that mounts all 13 routes. While it awaits its first push,
// exactly the four placeholder routes answer 503 and /schema and /healthz
// still answer; with its one admission slot held, exactly the four admit
// routes shed 429; with a 1 ns QueryTimeout, exactly the three deadline routes
// time out.
func TestRouteGuards(t *testing.T) {
	s, err := NewWithOptions(cube.New(cube.NewIntDimension("d0", 0, 0)), Options{
		BlockSize: 2, Fanout: 2, AcceptState: true, Metrics: true, MaxInflight: 1,
		QueryTimeout: time.Nanosecond, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	h := s.Handler()
	routes := everyRoute(t)
	serveAll := func() []*httptest.ResponseRecorder {
		recs := make([]*httptest.ResponseRecorder, len(routes))
		for i, rc := range routes {
			recs[i] = httptest.NewRecorder()
			h.ServeHTTP(recs[i], httptest.NewRequest(rc.method, rc.target, bytes.NewReader(rc.body)))
		}
		return recs
	}
	check := func(phase string, g guard, guarded func(*httptest.ResponseRecorder) bool) {
		t.Helper()
		for i, rec := range serveAll() {
			if rc := routes[i]; guarded(rec) != (rc.guards&g != 0) {
				t.Errorf("%s: %s %s answered %d %q", phase, rc.method, rc.target, rec.Code, rec.Body)
			}
		}
	}

	awaiting := func(rec *httptest.ResponseRecorder) bool {
		return rec.Code == http.StatusServiceUnavailable && strings.Contains(rec.Body.String(), "awaiting state push")
	}
	check("awaiting the first push", placeholder, awaiting)
	for i, rec := range serveAll() {
		if p := routes[i].target; (p == "/schema" || p == "/healthz") && rec.Code != http.StatusOK {
			t.Errorf("awaiting the first push: %s answered %d", p, rec.Code)
		}
	}

	if err := s.resetState(0, ndarray.New[int64](8, 8)); err != nil {
		t.Fatal(err)
	}
	s.inflight <- struct{}{}
	check("the admission slot held", admit, func(rec *httptest.ResponseRecorder) bool {
		return rec.Code == http.StatusTooManyRequests
	})
	<-s.inflight

	timedOut := func(rec *httptest.ResponseRecorder) bool {
		return rec.Code == http.StatusServiceUnavailable && strings.Contains(rec.Body.String(), "deadline")
	}
	check("a 1ns deadline", deadline, timedOut)
	if got := seriesValue(exposition(t, s), "cube_http_timeout_total", ""); got != 3 {
		t.Errorf("cube_http_timeout_total = %v after one request per route, want 3", got)
	}
}

// TestWrongMethodCountsAsOther: a request no route matches keeps the mux's
// own answer, here 405 for a wrong method on a known path, and is counted
// under path="other", not under the path it named.
func TestWrongMethodCountsAsOther(t *testing.T) {
	s, err := NewWithOptions(uniqueCube(7), Options{BlockSize: 5, Fanout: 4, Metrics: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/update", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "POST" || rec.Header().Get("X-Request-Id") == "" {
		t.Fatalf("GET /update answered %d, Allow %q, X-Request-Id %q; want 405, POST and an ID",
			rec.Code, rec.Header().Get("Allow"), rec.Header().Get("X-Request-Id"))
	}
	body := exposition(t, s)
	if got := seriesValue(body, "cube_http_requests_total", `method="GET",path="other",status="405"`); got != 1 {
		t.Errorf("GET /update counted %v times under path=\"other\", want 1", got)
	}
	if strings.Contains(body, `path="/update"`) {
		t.Errorf("GET /update counted under path=\"/update\"")
	}
}

// TestFailedGroupLoggedOnce: a group of sync writers whose commit fails on a
// poisoned log is logged once, by the commit path, not once more per writer.
func TestFailedGroupLoggedOnce(t *testing.T) {
	var logs syncLog
	g := newSyncGate()
	s, ts, inj, _ := faultyServer(t, func(o *Options) {
		open := o.WALOpenFile
		o.WALOpenFile = func(p string) (wal.File, error) {
			f, err := open(p)
			if err != nil {
				return nil, err
			}
			return gatedFile{File: f, g: g}, nil
		}
		o.Logf = logs.printf
	})
	// Park a first commit after its fsync, so the writers below queue behind
	// it and are flushed as one group.
	g.after.Store(true)
	if _, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{0, 0}, Delta: 1}}, false); err != nil {
		t.Fatal(err)
	}
	release := g.awaitPark(t)
	const writers = 3
	codes := make(chan int, writers)
	for i := range writers {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/update", "application/json",
				strings.NewReader(`{"updates":[{"coords":[1,`+strconv.Itoa(i)+`],"delta":1}]}`))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	waitFor(t, "the writers to queue", func() bool { return s.batcher.Depth() == writers })
	inj.FailSyncs(16, faultio.ErrNoSpace)
	release()
	for range writers {
		if code := <-codes; code != http.StatusServiceUnavailable {
			t.Fatalf("a writer of the poisoned group answered %d, want 503", code)
		}
	}
	logs.mu.Lock()
	defer logs.mu.Unlock()
	var failed []string
	for _, l := range logs.lines {
		if strings.Contains(l, "group commit failed") {
			failed = append(failed, l)
		}
	}
	if len(failed) != 1 {
		t.Fatalf("a failed group of %d writers logged %d lines, want 1: %q", writers, len(failed), failed)
	}
}

// FuzzHandler sends one request of any method, target, correlation and trace
// headers and body through a standalone server's Handler. For every input no
// panic escapes or is recovered, the response echoes an X-Request-Id (the
// client's when it is sane), cube_http_requests_total gains exactly one
// sample under one of the 13 routes or "other", and a response that is not
// 2xx leaves the seq where it was.
func FuzzHandler(f *testing.F) {
	s, err := NewWithOptions(cube.New(cube.NewIntDimension("x", 0, 7), cube.NewIntDimension("y", 0, 3)), Options{
		BlockSize: 2, Fanout: 2, Metrics: true, Logf: func(string, ...any) {},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	routes := map[string]bool{"other": true}
	for _, rc := range everyRoute(f) {
		routes[rc.target[:strings.IndexByte(rc.target+"?", '?')]] = true
	}
	seeds := []struct {
		method, target, rid, traceID, parent, body string
	}{
		{"GET", "/query?op=sum&x=1..3", "", "", "", ""},
		{"GET", "/query?op=max&x=0..2&y=*", "abc.1", "", "", ""},
		{"GET", "/query?op=avg&x=9..1", "", "", "", ""},
		{"GET", "/query?x=1&x=2", "bad id", "", "", ""},
		{"GET", "/query?op=min&z=1", "", "00000000000000ab", "00000000000000cd", ""},
		{"GET", "/query?op=count", "", "zz", "-1", ""},
		{"POST", "/query/batch", "", "", "", `[{"op":"avg","select":{"x":"1..2"}},{"op":"nope"}]`},
		{"POST", "/query/batch", "", "", "", `[]`},
		{"POST", "/update", "r-1", "", "", `{"updates":[{"coords":[1,1],"delta":3}]}`},
		{"POST", "/update?durability=async", "", "", "", `{"updates":[{"coords":[2,1],"delta":-3}]}`},
		{"POST", "/update", "", "", "", `{"updates":[{"coords":[8,0],"delta":1}]}`},
		{"POST", "/update?durability=maybe", "", "", "", `{"updates":[{"coords":[0,0],"delta":1}]}`},
		{"GET", "/update", "", "", "", ""},
		{"POST", "/shard/query", "", "", "", "not a frame"},
		{"POST", "/state", "", "", "", "not a snapshot"},
		{"GET", "//query", "", "", "", ""},
		{"GET", "/nowhere", "", "", "", ""},
		{"DELETE", "/schema", "", "", "", ""},
		{"GET", "/debug/traces?n=1", "", "", "", ""},
		{"GET", "/wal?after=x", "", "", "", ""},
		{"GET", "/metrics", "", "", "", ""},
	}
	for _, sd := range seeds {
		f.Add(sd.method, sd.target, sd.rid, sd.traceID, sd.parent, []byte(sd.body))
	}
	// samples maps each cube_http_requests_total label set to its path and count.
	sample := regexp.MustCompile(`(?m)^cube_http_requests_total(\{[^}]*path="([^"]*)"[^}]*\}) (\d+)$`)
	type series struct {
		path string
		n    int
	}
	samples := func(t *testing.T) map[string]series {
		out := map[string]series{}
		for _, m := range sample.FindAllStringSubmatch(exposition(t, s), -1) {
			n, _ := strconv.Atoi(m[3])
			out[m[1]] = series{m[2], n}
		}
		return out
	}
	f.Fuzz(func(t *testing.T, method, target, rid, traceID, parent string, body []byte) {
		if !strings.HasPrefix(target, "/") {
			return
		}
		r, err := http.NewRequest(method, "http://cube"+target, bytes.NewReader(body))
		if err != nil {
			return
		}
		for k, v := range map[string]string{"X-Request-Id": rid, "X-Trace-Id": traceID, "X-Parent-Span": parent} {
			if v != "" {
				r.Header.Set(k, v)
			}
		}
		// A sync no-op is a barrier: every async update an earlier input
		// queued has committed once it is acked, and it bumps no seq.
		ack, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{0, 0}}}, true)
		if err != nil {
			t.Fatal(err)
		}
		<-ack
		before, seq := samples(t), s.Seq()
		panics := seriesValue(exposition(t, s), "cube_http_panic_total", "")

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)

		if got := rec.Header().Get("X-Request-Id"); got == "" || clientRequestID(rid) != "" && got != rid {
			t.Fatalf("X-Request-Id %q answered with %q", rid, got)
		}
		if got := seriesValue(exposition(t, s), "cube_http_panic_total", ""); got != panics {
			t.Fatalf("%s %s: a handler panicked (%d %q)", method, target, rec.Code, rec.Body)
		}
		after := samples(t)
		gained := 0
		for labels, now := range after {
			if was := before[labels]; now.n != was.n {
				gained++
				if now.n != was.n+1 || !routes[now.path] {
					t.Fatalf("%s %s: %s went from %d to %d", method, target, labels, was.n, now.n)
				}
			}
		}
		if gained != 1 || len(after) < len(before) {
			t.Fatalf("%s %s: %d request series moved, want 1", method, target, gained)
		}
		if (rec.Code < 200 || rec.Code > 299) && s.Seq() != seq {
			t.Fatalf("%s %s answered %d and moved the seq %d → %d", method, target, rec.Code, seq, s.Seq())
		}
	})
}
