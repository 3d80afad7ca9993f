package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rangecube/internal/server"
	"rangecube/internal/workload"
)

// traceSpan / traceDump mirror the subset of GET /debug/traces the trace
// smoke asserts against.
type traceSpan struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id"`
	Name       string            `json:"name"`
	DurationNS int64             `json:"duration_ns"`
	Shard      int               `json:"shard"`
	Error      string            `json:"error"`
	Attrs      map[string]string `json:"attrs"`
}

type traceDump struct {
	Spans  int `json:"spans"`
	Traces []struct {
		TraceID string      `json:"trace_id"`
		Spans   []traceSpan `json:"spans"`
	} `json:"traces"`
}

// fetchTrace polls base's /debug/traces until the given trace ID shows up
// (spans land in the ring on End, which races the response write by a hair)
// and returns its spans. Fails the test if the trace never appears.
func fetchTrace(t *testing.T, base, tid string) []traceSpan {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/traces: %s: %s", resp.Status, data)
		}
		var dump traceDump
		if err := json.Unmarshal(data, &dump); err != nil {
			t.Fatalf("decoding /debug/traces: %v", err)
		}
		for _, g := range dump.Traces {
			if g.TraceID == tid {
				return g.Spans
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared in %s/debug/traces (%d spans retained)", tid, base, dump.Spans)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// assertConnected checks that every span in the group parents onto another
// span in the group or onto one of the extra (cross-process leader) span IDs,
// that exactly the expected number of roots exist, and that no duration is
// negative.
func assertConnected(t *testing.T, spans []traceSpan, extra map[string]bool, wantRoots int, where string) {
	t.Helper()
	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		ids[sp.SpanID] = true
	}
	roots := 0
	for _, sp := range spans {
		if sp.DurationNS < 0 {
			t.Fatalf("%s: span %q has negative duration %d", where, sp.Name, sp.DurationNS)
		}
		if sp.ParentID == "" {
			roots++
			continue
		}
		if !ids[sp.ParentID] && !extra[sp.ParentID] {
			t.Fatalf("%s: span %q parent %s resolves to no known span", where, sp.Name, sp.ParentID)
		}
	}
	if roots != wantRoots {
		t.Fatalf("%s: trace has %d roots, want %d", where, roots, wantRoots)
	}
}

// lockedLog collects one process's log output: a child's stderr pipe or a
// server's Logf writes it while the test reads it.
type lockedLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) printf(format string, args ...any) { fmt.Fprintf(l, format+"\n", args...) }

// await polls until the log holds want: a server logs a request's access
// line as its handler returns, which races the client reading the response.
func (l *lockedLog) await(t *testing.T, want, where string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		l.mu.Lock()
		ok := strings.Contains(l.b.String(), want)
		l.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s log never carried %q", where, want)
		}
	}
}

// metricValue reads one unlabelled sample off srv's /metrics exposition, or
// -1 when it is absent.
func metricValue(t *testing.T, srv *server.Server, name string) float64 {
	t.Helper()
	var b strings.Builder
	if err := srv.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s sample %q: %v", name, v, err)
			}
			return f
		}
	}
	return -1
}

// TestMultiProcessTraceSmoke is the tracing acceptance run: one batched
// query against a leader scatter–gathering over three real shard processes
// must yield a single connected span tree — root request span and per-shard
// RPC children on the leader, and adopted server spans (same trace ID,
// parented onto the leader's RPC spans) with per-item query spans in each
// shard process's own ring — and the trace ID on the leader's and every shard's
// access-log line. Then a SIGSTOP-stalled shard must leave a trace carrying
// the hedged duplicate's span and a down-marked RPC span, and the leader's
// remote-shard counters must count both.
func TestMultiProcessTraceSmoke(t *testing.T) {
	bin, err := BuildCubeserver(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	var procs []*ShardProc
	var urls []string
	var shardLogs [shards]lockedLog
	for i := 0; i < shards; i++ {
		p, err := startShardProc(&ShardProc{Index: i, bin: bin, flags: []string{"-access-log"}, stderr: &shardLogs[i]})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Kill()
		procs = append(procs, p)
		urls = append(urls, p.URL())
	}
	var leaderLog lockedLog

	const n = 64
	g := workload.New(131)
	cells := g.UniformCube([]int{n, n}, 1000)
	srv := newBenchServer(n, cells.Data(), server.Options{
		BlockSize: 1, Fanout: 4,
		ShardURLs:    urls,
		ShardTimeout: time.Second, // hedges at 50 ms
		TraceSample:  1,           // record everything; the smoke asserts exact traces
		AccessLog:    true,
		Logf:         leaderLog.printf,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Phase 1: healthy tier. One batched query must produce one connected
	// tree on the leader and adopted spans in every shard process.
	// Sum items scatter to the shard tier (shard.* RPC spans on the leader,
	// query.* item spans on each shard); the count item is answered from its
	// region's volume, does no work and gets no span.
	items := []map[string]any{
		{"op": "sum", "select": map[string]string{"d0": fmt.Sprintf("0..%d", n-1), "d1": fmt.Sprintf("0..%d", n-1)}},
		{"op": "sum", "select": map[string]string{"d0": "3..17", "d1": "8..40"}},
		{"op": "count", "select": map[string]string{"d0": "3..17", "d1": "8..40"}},
	}
	body, _ := json.Marshal(items)
	resp, err := http.Post(ts.URL+"/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query/batch: %s: %s", resp.Status, data)
	}
	tid := resp.Header.Get("X-Trace-Id")
	if tid == "" {
		t.Fatal("batch response carries no X-Trace-Id at sample rate 1")
	}

	leaderSpans := fetchTrace(t, ts.URL, tid)
	assertConnected(t, leaderSpans, nil, 1, "leader")
	leaderIDs := make(map[string]bool, len(leaderSpans))
	var sawRoot, sawRPC bool
	for _, sp := range leaderSpans {
		leaderIDs[sp.SpanID] = true
		switch {
		case sp.ParentID == "":
			sawRoot = true
			if sp.Name != "POST /query/batch" {
				t.Fatalf("leader root span named %q, want %q", sp.Name, "POST /query/batch")
			}
		case strings.HasPrefix(sp.Name, "query."):
			t.Fatalf("leader span %q: a remote leader evaluates no item itself", sp.Name)
		case strings.HasPrefix(sp.Name, "shard."):
			sawRPC = true
			if sp.Shard < 0 || sp.Shard >= shards {
				t.Fatalf("leader RPC span %q has shard %d outside [0, %d)", sp.Name, sp.Shard, shards)
			}
		}
	}
	if !sawRoot || !sawRPC {
		t.Fatalf("leader trace missing spans: root=%v shard.*=%v (got %d spans)",
			sawRoot, sawRPC, len(leaderSpans))
	}

	// Each shard process adopted the propagated trace: same trace ID in its
	// own ring, every span parented onto a leader RPC span (wire propagation
	// via X-Trace-Id / X-Parent-Span), and a query.* span for the items it
	// evaluated.
	for i, p := range procs {
		shardSpans := fetchTrace(t, p.URL(), tid)
		assertConnected(t, shardSpans, leaderIDs, 0, fmt.Sprintf("shard %d", i))
		sawItem := false
		for _, sp := range shardSpans {
			sawItem = sawItem || strings.HasPrefix(sp.Name, "query.")
		}
		if !sawItem {
			t.Fatalf("shard %d retained no query.* span for trace %s (got %d spans)", i, tid, len(shardSpans))
		}
	}
	// The same ID joins the access logs: the leader's line for the batch and
	// each shard's line for the frame it served.
	leaderLog.await(t, "trace="+tid, "leader")
	for i := range shardLogs {
		shardLogs[i].await(t, "trace="+tid, fmt.Sprintf("shard %d", i))
	}

	// Phase 2: freeze shard 1. The very next query stalls against it, fires
	// the hedged duplicate at 50ms, exhausts both attempts at the 300ms
	// deadline and marks the shard down — all of which must be visible in
	// that one trace.
	if err := procs[1].Stop(); err != nil {
		t.Fatal(err)
	}
	defer procs[1].Resume()
	u := fmt.Sprintf("%s/query?op=sum&d0=0..%d&d1=0..%d", ts.URL, n-1, n-1)
	resp, err = http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /query with stalled shard: %s: %s", resp.Status, data)
	}
	tid2 := resp.Header.Get("X-Trace-Id")
	if tid2 == "" {
		t.Fatal("stalled-shard response carries no X-Trace-Id")
	}

	stallSpans := fetchTrace(t, ts.URL, tid2)
	assertConnected(t, stallSpans, nil, 1, "stalled leader")
	var sawHedge, sawDown bool
	for _, sp := range stallSpans {
		if sp.Name == "shard.hedge" && sp.Shard == 1 {
			sawHedge = true
		}
		if sp.Attrs["down"] == "true" {
			sawDown = true
			if sp.Error == "" {
				t.Fatalf("down-marked span %q carries no error", sp.Name)
			}
			if sp.Shard != 1 {
				t.Fatalf("down-marked span points at shard %d, want 1", sp.Shard)
			}
		}
	}
	if !sawHedge || !sawDown {
		t.Fatalf("stalled-shard trace missing spans: shard.hedge=%v down-marked=%v (got %d spans)",
			sawHedge, sawDown, len(stallSpans))
	}
	if hedges, errs := metricValue(t, srv, "cube_shard_remote_hedges_total"), metricValue(t, srv, "cube_shard_remote_errors_total"); hedges < 1 || errs < 1 {
		t.Fatalf("after the stall: cube_shard_remote_hedges_total %v, cube_shard_remote_errors_total %v, want >= 1 each", hedges, errs)
	}
}
