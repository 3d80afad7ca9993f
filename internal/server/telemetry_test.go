package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rangecube/internal/cube"
	"rangecube/internal/ingest"
	"rangecube/internal/trace"
)

// metricsTestServer builds a fully featured server — WAL, snapshot,
// admission limit, metrics endpoint — over a small cube, answering sums with
// the blocked index at blockSize.
func metricsTestServer(t *testing.T, blockSize int) (*Server, *httptest.Server) {
	t.Helper()
	c := cube.New(
		cube.NewIntDimension("age", 1, 50),
		cube.NewIntDimension("year", 1990, 1999),
	)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		if err := c.Add(int64(rng.Intn(100)), 1+rng.Intn(50), 1990+rng.Intn(10)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	s, err := NewWithOptions(c, Options{
		BlockSize:    blockSize,
		Fanout:       4,
		WALPath:      filepath.Join(dir, "updates.wal"),
		SnapshotPath: filepath.Join(dir, "cube.snap"),
		MaxInflight:  8,
		Metrics:      true,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func scrape(t *testing.T, ts peer) string {
	t.Helper()
	resp, err := ts.Client().Get(urlOf(ts) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// exposition renders s's registry as GET /metrics would, for servers whose
// test drives a handler directly or mounts no /metrics route.
func exposition(t *testing.T, s *Server) string {
	t.Helper()
	var b strings.Builder
	if err := s.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// seriesValue returns the value of the first sample line whose name matches
// exactly (histogram series match their _bucket/_sum/_count children) and
// whose label block contains labelSubstr, or -1 when absent.
func seriesValue(body, name, labelSubstr string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{' && !strings.HasPrefix(rest, "_bucket") &&
			!strings.HasPrefix(rest, "_sum") && !strings.HasPrefix(rest, "_count")) {
			continue // a longer metric name sharing the prefix
		}
		if labelSubstr != "" && !strings.Contains(rest, labelSubstr) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// TestMetricsEndToEnd drives a mixed load — repeated queries, a batch with
// one poisoned item, an update through the WAL — then scrapes /metrics and
// asserts every required series is present with a sane value: per-endpoint
// request accounting, the live §8 cost histograms (one observation per
// evaluated query), WAL fsync latency and — at b = 1, labelled prefixsum, and
// at b = 5, labelled blocked — the bytes of exactly the structures built.
// Series of deleted features (the result cache, in-process followers) must
// stay gone.
func TestMetricsEndToEnd(t *testing.T) {
	t.Run("prefixsum", func(t *testing.T) { testMetricsEndToEnd(t, "prefixsum", 1) })
	t.Run("blocked", func(t *testing.T) { testMetricsEndToEnd(t, "blocked", 5) })
}

func testMetricsEndToEnd(t *testing.T, engine string, blockSize int) {
	_, ts := metricsTestServer(t, blockSize)

	get := func(path string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	post := func(path, body string, wantStatus int) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
	}

	for i := 0; i < 5; i++ {
		get("/query?op=sum&age=3..40&year=1991..1997") // identical: 5 evaluations
	}
	get("/query?op=max&age=10..30")
	get("/query?op=min&year=1992..1995")
	get("/query?op=count&age=5..9")
	post("/query/batch", `[{"op":"sum","select":{"age":"1..20"}},{"op":"bogus"}]`, http.StatusOK)
	post("/update", `{"updates":[{"coords":[0,0],"delta":5}]}`, http.StatusOK)

	body := scrape(t, ts)

	// Required series with a minimum sane value. Histograms are checked via
	// their _count child, so presence implies a complete exposition.
	checks := []struct {
		name, labels string
		min          float64
	}{
		{"cube_http_requests_total", `path="/query"`, 8},
		{"cube_http_requests_total", `path="/update"`, 1},
		{"cube_http_request_seconds_count", `path="/query"`, 8},
		{"cube_query_cost_cells_count", `op="sum",engine="` + engine + `"`, 1},
		{"cube_query_cost_aux_count", `op="max",engine="maxtree"`, 1},
		{"cube_query_cost_steps_count", `op="sum"`, 1},
		{"cube_wal_fsync_seconds_count", "", 1},
		{"cube_wal_append_bytes_total", "", 1},
		{"cube_update_batches_total", "", 1},
		{"cube_update_cells_total", "", 1},
		{"cube_write_lock_hold_seconds_count", "", 1}, // one observation per commit
		{"cube_batch_queries_count", "", 1},
		{"cube_batch_item_errors_sum", "", 1}, // the bogus op failed its slot
		{"cube_server_seq", "", 1},
		{"cube_wal_last_append_age_seconds", "", 0}, // whole seconds: 0 this soon after the append
	}
	for _, c := range checks {
		if got := seriesValue(body, c.name, c.labels); got < c.min {
			t.Errorf("series %s{%s} = %v, want >= %v", c.name, c.labels, got, c.min)
		}
	}
	if strings.Contains(body, "NaN") || strings.Contains(body, "Inf ") {
		t.Errorf("exposition contains NaN/Inf sample values:\n%s", body)
	}
	// The WAL fsync histogram must report real time: a positive sum.
	if sum := seriesValue(body, "cube_wal_fsync_seconds_sum", ""); sum <= 0 {
		t.Errorf("cube_wal_fsync_seconds_sum = %v, want > 0", sum)
	}
	// Exactly one observation for the one commit: the commit side records its
	// own hold, the eight reads above recorded nothing.
	if n := seriesValue(body, "cube_write_lock_hold_seconds_count", ""); n != 1 {
		t.Errorf("cube_write_lock_hold_seconds_count = %v after one commit, want 1", n)
	}
	// Every sum is evaluated: the 5 identical GETs and the batch's one.
	if got := seriesValue(body, "cube_query_cost_cells_count", `op="sum",engine="`+engine+`"`); got != 6 {
		t.Errorf("cost histogram saw %v sum evaluations, want 6", got)
	}
	for _, gone := range []string{
		"cube_cache_hits_total", "cube_cache_misses_total", "cube_cache_evictions_total",
		"cube_cache_flushes_total", "cube_cache_entries",
		"cube_followers", "cube_replica_lag", "cube_replica_batches_total", "cube_replica_fallbacks_total",
		// Series no code, test, runbook or bench scrape read.
		"cube_http_too_large_total",
		"cube_ingest_enqueued_total", "cube_ingest_rejected_total", "cube_ingest_batch_updates",
		"cube_ingest_batch_requests", "cube_ingest_queue_delay_seconds", "cube_ingest_queue_depth",
		"cube_ingest_coalesce_ratio",
		"cube_parallel_for_total", "cube_parallel_chunks_total", "cube_parallel_active_chunks",
		"cube_snapshot_seconds", "cube_wal_compactions_total", "cube_wal_resets_total",
		"cube_wal_append_batches_total",
		"cube_trace_spans_total", "cube_trace_spans_kept_total",
	} {
		if got := seriesValue(body, gone, ""); got != -1 || strings.Contains(body, "# HELP "+gone+" ") {
			t.Errorf("removed series %s is exported", gone)
		}
	}
	// Only what answers is built: 50×10 cells of 8 bytes; one 8-byte packed
	// entry per block, which at b = 1 is P, as large as the cells, with nothing
	// beside it, and at b = 5 is 10×2 entries plus the edge arrays' 50×2 and
	// 10×10; 13×3 + 4×1 + 1 fanout-4 tree nodes of 16 bytes in each tree.
	// Beside packed, its queue holds the update's block: an offset, a value
	// and its coordinate past the first, 24 bytes.
	wantBytes := map[string]float64{"cells": 4000, "blocked": 4000 + 24, "edges": 0, "maxtree": 704, "mintree": 704}
	if blockSize == 5 {
		wantBytes["blocked"], wantBytes["edges"] = 160+24, 1600
	}
	for structure, want := range wantBytes {
		if got := seriesValue(body, "cube_structure_bytes", `structure="`+structure+`"`); got != want {
			t.Errorf("cube_structure_bytes{structure=%q} = %v under %s, want %v", structure, got, engine, want)
		}
	}
	if strings.Contains(body, `cube_structure_bytes{structure="prefixsum"}`) {
		t.Error(`cube_structure_bytes reports structure="prefixsum": P is never built beside the index`)
	}
}

// TestMetricsTable holds README's Observability table to what a server
// exports: one row per family, of the family's type, and every row names
// what reads the family. newServerMetrics registers every family whatever
// the options, so one plain server shows them all.
func TestMetricsTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Observability\n")
	if !ok {
		t.Fatal("README has no Observability section")
	}
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	rows := map[string]string{} // family → type
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `cube_") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			t.Fatalf("table row %q has %d cells, want 4: family, type, labels, read by", line, len(cells))
		}
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		if _, dup := rows[name]; dup {
			t.Errorf("%s has two rows", name)
		}
		rows[name] = strings.TrimSpace(cells[1])
		if strings.TrimSpace(cells[3]) == "" {
			t.Errorf("%s: nothing reads it", name)
		}
	}

	s, err := NewWithOptions(cube.New(cube.NewIntDimension("x", 0, 3)), Options{BlockSize: 1, Fanout: 2, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	exported := map[string]string{}
	for _, line := range strings.Split(exposition(t, s), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			exported[name] = typ
		}
	}
	for name, typ := range exported {
		if got, ok := rows[name]; !ok {
			t.Errorf("%s (%s) is exported but has no README row", name, typ)
		} else if got != typ {
			t.Errorf("%s is a %s, README says %s", name, typ, got)
		}
	}
	for name := range rows {
		if _, ok := exported[name]; !ok {
			t.Errorf("README lists %s, which no server exports", name)
		}
	}
}

// TestRequestIDPropagation: a sane client ID is accepted and echoed; a
// missing or hostile one is replaced with a minted ID; error bodies carry
// the ID for correlation.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := metricsTestServer(t, 1)

	req, _ := http.NewRequest("GET", ts.URL+"/query?op=sum&age=1..5", nil)
	req.Header.Set("X-Request-Id", "client-abc.123")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-abc.123" {
		t.Errorf("sane client ID not echoed: got %q", got)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/query?op=sum&age=1..5", nil)
	req.Header.Set("X-Request-Id", `evil" label{;`)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == `evil" label{;` || got == "" {
		t.Errorf("hostile client ID must be replaced, got %q", got)
	}

	// An error response carries the request ID in its body.
	req, _ = http.NewRequest("GET", ts.URL+"/query?op=bogus&age=1..5", nil)
	req.Header.Set("X-Request-Id", "corr-42")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if out.RequestID != "corr-42" {
		t.Errorf("error body request_id = %q, want corr-42", out.RequestID)
	}
	if out.Error == "" {
		t.Errorf("error body missing error text")
	}
}

// TestStatusWriterCapturesCode: the per-status accounting sees the real
// committed code — an explicit error status, and the implicit 200 of a
// handler that only writes a body.
func TestStatusWriterCapturesCode(t *testing.T) {
	_, ts := metricsTestServer(t, 1)

	get := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/query?op=bogus"); got != http.StatusBadRequest {
		t.Fatalf("bogus op: status %d", got)
	}
	get("/schema")

	body := scrape(t, ts)
	if got := seriesValue(body, "cube_http_requests_total", `status="400"`); got < 1 {
		t.Errorf("no 400 accounted in cube_http_requests_total: %v", got)
	}
	if got := seriesValue(body, "cube_http_requests_total", `path="/schema",status="200"`); got < 1 {
		t.Errorf("implicit 200 not accounted: %v", got)
	}
}

// TestStatusWriterForwardsFlush: wrapping must not hide the Flusher
// capability from handlers that stream.
func TestStatusWriterForwardsFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	var _ http.Flusher = sw // compile-time: statusWriter implements Flusher
	sw.Write([]byte("x"))
	sw.Flush()
	if !rec.Flushed {
		t.Fatal("Flush not forwarded to the underlying writer")
	}
	if sw.status() != http.StatusOK {
		t.Fatalf("implicit status = %d, want 200", sw.status())
	}
	if sw.bytes != 1 {
		t.Fatalf("bytes = %d, want 1", sw.bytes)
	}
}

// TestShedAccounting: requests shed by the admission semaphore land in
// cube_http_shed_total and cube_http_requests_total{status="429"}, and the
// shed response still carries a request ID.
func TestShedAccounting(t *testing.T) {
	c := cube.New(cube.NewIntDimension("age", 1, 10))
	for i := 1; i <= 10; i++ {
		if err := c.Add(1, i); err != nil {
			t.Fatal(err)
		}
	}
	block := make(chan struct{})
	holding := make(chan struct{})
	s, err := NewWithOptions(c, Options{
		BlockSize:   2,
		Fanout:      2,
		MaxInflight: 1,
		Metrics:     true,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot with a handler that signals arrival, then parks
	// until released.
	mux := http.NewServeMux()
	mux.Handle("/park", route{func(w http.ResponseWriter, r *http.Request) {
		close(holding)
		<-block
		w.WriteHeader(http.StatusOK)
	}, admit})
	mux.Handle("/query", route{func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}, admit})
	mux.Handle("/metrics", route{s.met.reg.Handler().ServeHTTP, 0})
	ts := httptest.NewServer(s.serve(mux))
	defer ts.Close()

	parked := make(chan struct{})
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/park")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		close(parked)
	}()

	// Once the parked handler holds the only slot, any further request must
	// shed deterministically. The scrape itself is the second request in
	// flight.
	<-holding
	if got := seriesValue(scrape(t, ts), "cube_http_inflight", ""); got != 2 {
		t.Errorf("cube_http_inflight = %v with one request parked, want 2 (it and the scrape)", got)
	}
	resp, err := ts.Client().Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	rid := resp.Header.Get("X-Request-Id")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("contended request: status %d, want 429", resp.StatusCode)
	}
	if rid == "" {
		t.Error("shed response missing X-Request-Id")
	}
	close(block)
	<-parked

	body := scrape(t, ts)
	if got := seriesValue(body, "cube_http_shed_total", ""); got < 1 {
		t.Errorf("cube_http_shed_total = %v, want >= 1", got)
	}
	if got := seriesValue(body, "cube_http_requests_total", `status="429"`); got < 1 {
		t.Errorf("no 429 accounted in cube_http_requests_total: %v", got)
	}
}

// TestCommitTraceShowsTheQueueFold: each commit's structures.apply span
// carries the length of the blocked index's queue of deferred value-to-adds,
// and exactly the commit that fills it — ⌈√64⌉ = 8 blocks on an 8×8 cube at
// b = 1 — has a structures.flush child, after which the queue starts over.
func TestCommitTraceShowsTheQueueFold(t *testing.T) {
	c := cube.New(cube.NewIntDimension("x", 0, 7), cube.NewIntDimension("y", 0, 7))
	s, err := NewWithOptions(c, Options{BlockSize: 1, Fanout: 4, TraceSample: 1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i := 0; i < 11; i++ {
		ack, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{i % 8, i * 3 % 8}, Delta: int64(i + 1)}}, true)
		if err != nil {
			t.Fatal(err)
		}
		if res := <-ack; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	var queued []string
	applies := map[string]bool{}
	var flushes []trace.SpanData
	for _, sp := range s.tracer.Snapshot() {
		switch sp.Name {
		case "structures.apply":
			queued = append(queued, sp.Attrs["queued"])
			applies[sp.SpanID] = sp.Attrs["queued"] == "8"
		case "structures.flush":
			flushes = append(flushes, sp)
		}
	}
	if want := []string{"1", "2", "3", "4", "5", "6", "7", "8", "1", "2", "3"}; !slices.Equal(queued, want) {
		t.Fatalf("structures.apply spans carry queued=%v, want %v", queued, want)
	}
	if len(flushes) != 1 || !applies[flushes[0].ParentID] {
		t.Fatalf("%d structures.flush spans (%+v), want one, under the apply that filled the queue", len(flushes), flushes)
	}
}
