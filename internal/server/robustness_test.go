package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rangecube/internal/cube"
)

// uniqueCube builds the deterministic test cube with (near-)unique random
// cell values. Uniqueness matters for the bit-identical recovery tests:
// with ties, an incrementally updated max tree and a freshly built one may
// legitimately report different argmax locations.
func uniqueCube(seed int64) *cube.Cube {
	c := cube.New(
		cube.NewIntDimension("age", 1, 50),
		cube.NewIntDimension("year", 1990, 1999),
		cube.NewCategoryDimension("type", "auto", "home"),
	)
	rng := rand.New(rand.NewSource(seed))
	data := c.Data().Data()
	for i := range data {
		data[i] = rng.Int63n(1<<40) - (1 << 39)
	}
	return c
}

func randomBatches(seed int64, n int) [][]map[string]any {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]map[string]any, n)
	for i := range out {
		batch := make([]map[string]any, 1+rng.Intn(5))
		for j := range batch {
			batch[j] = map[string]any{
				"coords": []int{rng.Intn(50), rng.Intn(10), rng.Intn(2)},
				"delta":  rng.Int63n(1<<40) - (1 << 39),
			}
		}
		out[i] = batch
	}
	return out
}

func randomQueries(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	ops := []string{"sum", "max", "min", "avg", "count"}
	out := make([]string, n)
	for i := range out {
		a1, a2 := 1+rng.Intn(50), 1+rng.Intn(50)
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		y1, y2 := 1990+rng.Intn(10), 1990+rng.Intn(10)
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		q := fmt.Sprintf("/query?op=%s&age=%d..%d&year=%d..%d", ops[rng.Intn(len(ops))], a1, a2, y1, y2)
		if rng.Intn(3) == 0 {
			q += fmt.Sprintf("&type=%s", []string{"auto", "home"}[rng.Intn(2)])
		}
		out[i] = q
	}
	return out
}

// TestCrashRecoveryBitIdentical is the tentpole acceptance test: a durable
// server takes 20 update batches (compacting every 8, so the state on disk
// is a snapshot plus a WAL tail), is abandoned without any shutdown
// courtesy, and is recovered from disk alone. Every query answer — values,
// argmax locations, bounds, access counts, the whole JSON byte string —
// must match a reference server that lived through the same updates
// without ever crashing.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	durableOpts := Options{
		BlockSize:    5,
		Fanout:       4,
		WALPath:      filepath.Join(dir, "updates.wal"),
		SnapshotPath: filepath.Join(dir, "cube.snap"),
		CompactEvery: 8,
		Logf:         t.Logf,
	}
	ref, err := NewWithOptions(uniqueCube(7), Options{BlockSize: 5, Fanout: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	durable, err := NewWithOptions(uniqueCube(7), durableOpts)
	if err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(ref.Handler())
	defer tsRef.Close()
	tsDur := httptest.NewServer(durable.Handler())

	for i, batch := range randomBatches(9, 20) {
		codeR, bodyR := postBatch(t, tsRef, batch)
		codeD, bodyD := postBatch(t, tsDur, batch)
		if codeR != http.StatusOK || codeD != http.StatusOK {
			t.Fatalf("batch %d: statuses %d / %d", i, codeR, codeD)
		}
		// The acks agree on everything but the pipeline's latency breakdown.
		var ackR, ackD updateResponse
		if json.Unmarshal([]byte(bodyR), &ackR) != nil || json.Unmarshal([]byte(bodyD), &ackD) != nil ||
			ackR.Applied != ackD.Applied || ackR.Seq != ackD.Seq || ackR.Durability != ackD.Durability {
			t.Fatalf("batch %d: responses diverge: %s vs %s", i, bodyR, bodyD)
		}
	}
	// Crash: the server vanishes without Checkpoint or Close. Only the
	// fsynced WAL and the last rotated snapshot survive.
	tsDur.Close()
	if _, err := os.Stat(durableOpts.SnapshotPath); err != nil {
		t.Fatalf("no snapshot after 20 batches with CompactEvery=8: %v", err)
	}

	recovered, err := NewWithOptions(uniqueCube(7), durableOpts)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if recovered.Seq() != 20 {
		t.Fatalf("recovered seq %d, want 20", recovered.Seq())
	}
	tsRec := httptest.NewServer(recovered.Handler())
	defer tsRec.Close()

	for _, q := range randomQueries(11, 200) {
		codeR, bodyR := getBody(t, tsRef, q)
		codeC, bodyC := getBody(t, tsRec, q)
		if codeR != http.StatusOK {
			t.Fatalf("%s: reference status %d", q, codeR)
		}
		if codeC != codeR || bodyC != bodyR {
			t.Fatalf("%s: recovered answer diverges\nref: %s\nrec: %s", q, bodyR, bodyC)
		}
	}
}

// TestTruncatedWALRecoversPrefix tears the last WAL record (a crash
// mid-append) and checks the server comes back as if the torn batch had
// never been acknowledged: state identical to a run of the first n−1
// batches, byte-for-byte.
func TestTruncatedWALRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		BlockSize:    5,
		Fanout:       4,
		WALPath:      filepath.Join(dir, "updates.wal"),
		SnapshotPath: filepath.Join(dir, "cube.snap"),
		CompactEvery: 1000, // keep everything in the WAL
		Logf:         t.Logf,
	}
	durable, err := NewWithOptions(uniqueCube(7), opts)
	if err != nil {
		t.Fatal(err)
	}
	tsDur := httptest.NewServer(durable.Handler())
	batches := randomBatches(13, 6)
	for i, b := range batches {
		if code, body := postBatch(t, tsDur, b); code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, code, body)
		}
	}
	tsDur.Close()

	data, err := os.ReadFile(opts.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opts.WALPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, err := NewWithOptions(uniqueCube(7), opts)
	if err != nil {
		t.Fatalf("recovery from torn WAL failed: %v", err)
	}
	if recovered.Seq() != 5 {
		t.Fatalf("recovered seq %d, want 5 (batch 6 was torn)", recovered.Seq())
	}
	ref, err := NewWithOptions(uniqueCube(7), Options{BlockSize: 5, Fanout: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(ref.Handler())
	defer tsRef.Close()
	for i, b := range batches[:5] {
		if code, _ := postBatch(t, tsRef, b); code != http.StatusOK {
			t.Fatalf("reference batch %d failed", i)
		}
	}
	tsRec := httptest.NewServer(recovered.Handler())
	defer tsRec.Close()
	for _, q := range randomQueries(17, 100) {
		_, bodyR := getBody(t, tsRef, q)
		_, bodyC := getBody(t, tsRec, q)
		if bodyR != bodyC {
			t.Fatalf("%s: diverges after torn-WAL recovery\nref: %s\nrec: %s", q, bodyR, bodyC)
		}
	}
}

// TestWALFailureFailsUpdate: when the log cannot persist a batch, the
// batch must be rejected with 503 and must not touch the in-memory state.
func TestWALFailureFailsUpdate(t *testing.T) {
	dir := t.TempDir()
	s, err := NewWithOptions(uniqueCube(7), Options{
		BlockSize: 5, Fanout: 4,
		WALPath: filepath.Join(dir, "updates.wal"),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, before := getBody(t, ts, "/query?op=sum&age=1..50")

	s.wal.Close() // the disk "fails"
	code, body := postBatch(t, ts, []map[string]any{{"coords": []int{0, 0, 0}, "delta": 1}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("update on dead WAL: %d %s", code, body)
	}
	_, after := getBody(t, ts, "/query?op=sum&age=1..50")
	if before != after {
		t.Fatal("non-durable batch leaked into memory")
	}

	// Remote-shard leader: the scatter starts only once the batch is durable,
	// so a failed append reaches no shard — there is nothing to compensate
	// for, and no engine is marked down to force a resync.
	tr := newTier(t, tierSpec{cube: uniqueCube(7), shards: 2, opts: Options{
		BlockSize: 5, Fanout: 4,
		WALPath: filepath.Join(dir, "leader.wal"),
		Logf:    t.Logf,
	}})
	leader := tr.leader
	_, before = getBody(t, leader, "/query?op=sum&age=1..50")

	leader.wal.Close()
	code, body = postBatch(t, leader, []map[string]any{{"coords": []int{0, 0, 0}, "delta": 1}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("leader update on dead WAL: %d %s", code, body)
	}
	for i, n := range tr.shards {
		if got := n.Seq(); got != 0 {
			t.Fatalf("shard %d applied %d batches of an update its leader never committed", i, got)
		}
	}
	if h := leader.Health(); len(h.ShardsDown) != 0 || h.Seq != 0 {
		t.Fatalf("leader after the failed append: %+v, want every shard up at seq 0", h)
	}
	if _, after = getBody(t, leader, "/query?op=sum&age=1..50"); before != after {
		t.Fatalf("non-durable batch leaked into the tier: %s, was %s", after, before)
	}
}

// TestSheddingUnderLoad holds a slot with a blocked request and checks the
// next one is shed immediately with 429 + Retry-After, then admitted again
// once the slot frees.
func TestSheddingUnderLoad(t *testing.T) {
	s := New(uniqueCube(7), 5, 4)
	s.inflight = make(chan struct{}, 1)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	h := s.serveOne(admit, func(w http.ResponseWriter, r *http.Request) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		w.WriteHeader(http.StatusOK)
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/query", nil))
	}()
	<-started

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/query", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q", rec.Header().Get("Retry-After"))
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == "" {
		t.Fatalf("shed response body %q", rec.Body.String())
	}

	close(release)
	wg.Wait()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/query", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("freed server returned %d", rec.Code)
	}
}

func TestMaxInflightWiring(t *testing.T) {
	s, err := NewWithOptions(uniqueCube(7), Options{BlockSize: 5, Fanout: 4, MaxInflight: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if cap(s.inflight) != 2 {
		t.Fatalf("inflight cap = %d", cap(s.inflight))
	}
}

// TestQueryDeadline: with an unmeetable deadline, the scan abandons work at
// its first cancellation checkpoint and the request fails with 503.
func TestQueryDeadline(t *testing.T) {
	c := uniqueCube(7)
	// Plant the global max in the far corner: a max query whose region
	// includes the argmax answers in O(1) from the root and never reaches a
	// cancellation checkpoint, so the adversarial query must exclude it.
	c.Data().Set(1<<45, 49, 9, 1)
	s, err := NewWithOptions(c, Options{
		BlockSize: 5, Fanout: 4,
		QueryTimeout: time.Nanosecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, q := range []string{
		"/query?op=max&age=1..49&year=1990..1998",
		"/query?op=sum&age=1..49&year=1990..1998",
	} {
		start := time.Now()
		code, body := getBody(t, ts, q)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d (%s), want 503", q, code, body)
		}
		if !strings.Contains(body, "deadline") {
			t.Fatalf("%s: body %q does not mention the deadline", q, body)
		}
		if el := time.Since(start); el > 100*time.Millisecond {
			t.Fatalf("%s: doomed query took %v", q, el)
		}
	}
	if got := seriesValue(exposition(t, s), "cube_http_timeout_total", ""); got != 2 {
		t.Fatalf("cube_http_timeout_total = %v after two doomed queries, want 2", got)
	}
}

// TestPanicRecovery: a panicking handler becomes a logged 500 JSON error;
// the http.ErrAbortHandler sentinel still propagates.
func TestPanicRecovery(t *testing.T) {
	s, err := NewWithOptions(uniqueCube(7), Options{BlockSize: 5, Fanout: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	h := s.serveOne(0, func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/query", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == "" {
		t.Fatalf("panic response body %q", rec.Body.String())
	}
	if got := seriesValue(exposition(t, s), "cube_http_panic_total", ""); got != 1 {
		t.Fatalf("cube_http_panic_total = %v after one recovered panic, want 1", got)
	}

	// An abort still propagates, and only after the frame has recorded it:
	// the in-flight gauge is back to 0 and the route has one more sample.
	requests := func() (n float64) {
		for _, line := range strings.Split(exposition(t, s), "\n") {
			if strings.HasPrefix(line, "cube_http_requests_total{") {
				v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				n += v
			}
		}
		return n
	}
	before := requests()
	abort := s.serveOne(0, func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Fatal("ErrAbortHandler was swallowed")
			}
		}()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/query", nil))
	}()
	if got := seriesValue(exposition(t, s), "cube_http_inflight", ""); got != 0 {
		t.Fatalf("cube_http_inflight = %v after an aborted request, want 0", got)
	}
	if got := requests(); got != before+1 {
		t.Fatalf("cube_http_requests_total went %v -> %v over one aborted request, want one more", before, got)
	}
}

// TestUpdateBodyLimit: a batch larger than maxBodyBytes is refused with 413
// before it is parsed.
func TestUpdateBodyLimit(t *testing.T) {
	s := New(uniqueCube(7), 5, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const one = `{"coords":[0,0,0],"delta":1}`
	big := `{"updates":[` + strings.Repeat(one+",", maxBodyBytes/len(one)) + one + `]}`
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch: %d %.200s", resp.StatusCode, body)
	}
	// A batch under the limit still works.
	if code, body := postBatch(t, ts, []map[string]any{{"coords": []int{0, 0, 0}, "delta": 1}}); code != http.StatusOK {
		t.Fatalf("small batch: %d %s", code, body)
	}
}

// TestQueryRejectsSpaceParam: a parameter naming no dimension (here the
// space budget of the §9 planner, which the server does not run) fails the
// query loudly, not silently ignored.
func TestQueryRejectsSpaceParam(t *testing.T) {
	s := New(uniqueCube(7), 5, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := getBody(t, ts, "/query?op=sum&age=1..10&space=100000")
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if !strings.Contains(body, `cube: unknown dimension \"space\"`) {
		t.Fatalf("error %q should name the unknown dimension", body)
	}
}

// TestConcurrentDurableQueriesAndUpdates exercises the full stack — WAL
// appends, compaction, admission-free queries — under the race detector.
func TestConcurrentDurableQueriesAndUpdates(t *testing.T) {
	dir := t.TempDir()
	s, err := NewWithOptions(uniqueCube(7), Options{
		BlockSize: 5, Fanout: 4,
		WALPath:      filepath.Join(dir, "updates.wal"),
		SnapshotPath: filepath.Join(dir, "cube.snap"),
		CompactEvery: 3,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				code, body := getBody(t, ts, fmt.Sprintf("/query?op=max&age=%d..%d", 1+seed, 30+seed))
				if code != http.StatusOK {
					t.Errorf("query: %d %s", code, body)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			code, body := postBatch(t, ts, []map[string]any{
				{"coords": []int{i, i % 10, 0}, "delta": 5},
			})
			if code != http.StatusOK {
				t.Errorf("update: %d %s", code, body)
				return
			}
		}
	}()
	wg.Wait()
	if s.Seq() != 12 {
		t.Fatalf("seq = %d after 12 batches", s.Seq())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
