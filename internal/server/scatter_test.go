package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/ingest"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/shard"
	"rangecube/internal/wal"
)

func decodeJSON(r io.Reader, out any) { json.NewDecoder(r).Decode(out) }

// answer is a reply a test collects off its own goroutine.
type answer struct {
	out  queryResponse
	code int
}

// ask sends method path (with a JSON body when body is not empty) to p on a
// goroutine of its own, since a request the wire carries returns only when
// its handler does, and delivers the reply.
func ask(p peer, method, path, body string) <-chan answer {
	ch := make(chan answer, 1)
	go func() {
		var a answer
		req, _ := http.NewRequest(method, urlOf(p)+path, strings.NewReader(body))
		if resp, err := p.Client().Do(req); err == nil {
			a.code = resp.StatusCode
			decodeJSON(resp.Body, &a.out)
			resp.Body.Close()
		}
		ch <- a
	}()
	return ch
}

// within receives from ch, failing the test unless a reply comes in 5 s.
func within(t *testing.T, what string, ch <-chan answer) answer {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no reply in 5 s", what)
		return answer{}
	}
}

// TestLeaderHoldsNoLockAcrossShardReads parks shard 1's reads mid-flight under
// a max and an avg that both need it. Neither may be holding the leader's read
// lock there: a commit into shard 0's slab must be acked and a sum over shard
// 0's slab answered while they wait (a read lock held across the round trip
// blocks the commit, and the write-preferring lock then queues every later
// read behind it). Released, both answer with a value the oracle held inside
// their request window.
func TestLeaderHoldsNoLockAcrossShardReads(t *testing.T) {
	g := newGate(t)
	defer g.open()
	// A read parks at most the 5 s the test waits for anything; the hedge
	// fires at a twentieth of the deadline, past that.
	tr := newTier(t, tierSpec{shards: 2, opts: Options{ShardTimeout: 100 * time.Second},
		hook: func(host string, r *http.Request) fault {
			// Every read route this tier has ever used, so the test means the
			// same thing against a build that reads through another one.
			if host == "shard1" && r.URL.Path != "/update" && r.URL.Path != "/shard/apply" && r.URL.Path != "/state" {
				return g.hold(r)
			}
			return pass
		}})

	maxR, avgR := tr.region(2, 8, 0, 7), tr.region(3, 6, 1, 6)
	_, maxBefore, _ := naive.Max(tr.oracle, maxR, nil)
	avgBefore := naive.SumInt64(tr.oracle, avgR, nil)
	maxCh := ask(tr.leader, http.MethodGet, "/query?op=max&x=2..8", "")
	avgCh := ask(tr.leader, http.MethodGet, "/query?op=avg&x=3..6&y=1..6", "")
	g.awaitArrival(t) // the max and the avg, as no hedge fires
	g.awaitArrival(t)

	// A commit inside both parked regions, in shard 0's slab.
	if a := within(t, "commit into shard 0's slab while shard 1's reads are parked",
		ask(tr.leader, http.MethodPost, "/update?durability=sync", `{"updates":[{"coords":[3,3],"delta":1000}]}`)); a.code != http.StatusOK {
		t.Fatalf("commit answered %d", a.code)
	}
	tr.oracle.Set(tr.oracle.At(3, 3)+1000, 3, 3)
	sum := within(t, "sum over shard 0's slab while shard 1's reads are parked", ask(tr.leader, http.MethodGet, "/query?op=sum&x=0..4", ""))
	if want := naive.SumInt64(tr.oracle, tr.region(0, 4, 0, 7), nil); sum.code != http.StatusOK || sum.out.Value != want {
		t.Fatalf("sum over shard 0's slab = %+v (%d), oracle %d", sum.out, sum.code, want)
	}

	g.open()
	_, maxAfter, _ := naive.Max(tr.oracle, maxR, nil)
	avgAfter := naive.SumInt64(tr.oracle, avgR, nil)
	if a := <-maxCh; a.code != http.StatusOK || (a.out.Value != maxBefore && a.out.Value != maxAfter) {
		t.Fatalf("parked max answered %+v (status %d), oracle held %d then %d", a.out, a.code, maxBefore, maxAfter)
	}
	if a := <-avgCh; a.code != http.StatusOK || (a.out.Value != avgBefore && a.out.Value != avgAfter) ||
		a.out.Average != float64(a.out.Value)/float64(avgR.Volume()) {
		t.Fatalf("parked avg answered %+v (status %d), oracle held sum %d then %d", a.out, a.code, avgBefore, avgAfter)
	}
}

// TestOneExchangePerShardPerBatch counts what the leader sends: a client batch
// costs each shard it touches exactly one scatter frame, whatever ops it
// mixes, and nothing on the public read routes; a shard that owns no piece of
// the batch hears nothing. The leader's trace shows the same: one shard.query
// span per shard, carrying the item count.
func TestOneExchangePerShardPerBatch(t *testing.T) {
	tr := newTier(t, tierSpec{shards: 2, opts: Options{TraceSample: 1}})
	framesOf := func(host string) int { return tr.w.count(host, "POST /shard/query") }
	// delta runs do and returns the frames each shard took during it, and the
	// public reads the shards have ever taken.
	delta := func(do func()) ([2]int, int) {
		before := [2]int{framesOf("shard0"), framesOf("shard1")}
		do()
		public := 0
		for _, h := range []string{"shard0", "shard1"} {
			public += tr.w.count(h, "GET /query") + tr.w.count(h, "POST /query/batch")
		}
		return [2]int{framesOf("shard0") - before[0], framesOf("shard1") - before[1]}, public
	}

	// 16 items, every op, every region spanning both slabs.
	var items []batchQuery
	ops := []string{"sum", "avg", "max", "min", "count"}
	for k := 0; k < 16; k++ {
		items = append(items, batchQuery{Op: ops[k%len(ops)], Select: map[string]string{
			"x": fmt.Sprintf("%d..%d", k%5, 5+k%5), "y": fmt.Sprintf("%d..%d", k%3, 4+k%4)}})
	}
	var resp *http.Response
	frames, public := delta(func() {
		var err error
		if resp, err = tr.leader.Client().Post(tr.leader.URL+"/query/batch", "application/json", bytes.NewReader(marshalBatch(t, items))); err != nil {
			t.Fatal(err)
		}
	})
	var out batchOut
	decodeJSON(resp.Body, &out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(out.Results) != len(items) {
		t.Fatalf("batch answered %s with %d results", resp.Status, len(out.Results))
	}
	for k, res := range out.Results {
		x0, y0 := k%5, k%3
		r := tr.region(x0, 5+k%5, y0, 4+k%4)
		want := naive.SumInt64(tr.oracle, r, nil)
		switch items[k].Op {
		case "max":
			_, want, _ = naive.Max(tr.oracle, r, nil)
		case "min":
			_, want, _ = naive.Min(tr.oracle, r, nil)
		case "count":
			want = int64(r.Volume())
		}
		if res.Result == nil || res.Result.Value != want {
			t.Fatalf("item %d (%s over %v) = %+v, oracle %d", k, items[k].Op, r, res, want)
		}
	}
	if frames != [2]int{1, 1} || public != 0 {
		t.Fatalf("a 16-item mixed batch sent %v scatter frames and %d public reads, want [1 1] and 0", frames, public)
	}
	// 13 of the 16 items reach the shards (3 are counts), each cut in two.
	spans := 0
	for _, sp := range tr.leader.tracer.Snapshot() {
		if sp.TraceID == resp.Header.Get("X-Trace-Id") && sp.Name == "shard.query" {
			spans++
			if sp.Attrs["items"] != "13" {
				t.Fatalf("shard.query span for shard %d carries items=%q, want 13", sp.Shard, sp.Attrs["items"])
			}
		}
	}
	if spans != 2 {
		t.Fatalf("the batch's trace holds %d shard.query spans, want one per shard", spans)
	}

	if frames, public := delta(func() {
		var mx queryResponse
		if code := get(t, tr.leader, "/query?op=max&x=1..8", &mx); code != http.StatusOK {
			t.Fatalf("GET max: status %d", code)
		}
	}); frames != [2]int{1, 1} || public != 0 {
		t.Fatalf("GET /query?op=max sent %v scatter frames and %d public reads, want [1 1] and 0", frames, public)
	}

	one := marshalBatch(t, []batchQuery{
		{Op: "sum", Select: map[string]string{"x": "0..4"}},
		{Op: "min", Select: map[string]string{"x": "1..3", "y": "2..6"}},
		{Op: "avg", Select: map[string]string{"x": "2"}},
	})
	if frames, public := delta(func() {
		if code, _, raw := postQueryBatch(t, tr.leader, one); code != http.StatusOK {
			t.Fatalf("one-slab batch: status %d body %s", code, raw)
		}
	}); frames != [2]int{1, 0} || public != 0 {
		t.Fatalf("a batch inside shard 0's slab sent %v scatter frames and %d public reads, want [1 0] and 0", frames, public)
	}
}

// TestRemoteSumBoundsOneRule: a healthy shard contributes its exact sub-sum as
// its own bounds however many sub-queries the exchange happened to carry, so
// the same region reports the same value and bounds — both the value — asked
// alone, as a batch of one, or among fifteen others.
func TestRemoteSumBoundsOneRule(t *testing.T) {
	tr := newTier(t, tierSpec{shards: 2})
	want := naive.SumInt64(tr.oracle, tr.region(2, 8, 1, 6), nil)
	sel := map[string]string{"x": "2..8", "y": "1..6"}
	check := func(how string, r *queryResponse) {
		t.Helper()
		if r == nil || r.Value != want || r.LowerBnd == nil || *r.LowerBnd != want || *r.UpperBnd != want || r.Partial {
			t.Fatalf("%s: %+v, want value and both bounds %d", how, r, want)
		}
	}
	var alone queryResponse
	if code := get(t, tr.leader, "/query?op=sum&x=2..8&y=1..6", &alone); code != http.StatusOK {
		t.Fatalf("GET: status %d", code)
	}
	check("GET /query", &alone)
	for _, n := range []int{1, 16} {
		items := []batchQuery{{Op: "sum", Select: sel}}
		for k := 1; k < n; k++ {
			items = append(items, batchQuery{Op: "sum", Select: map[string]string{"x": strconv.Itoa(k % 10)}})
		}
		code, out, raw := postQueryBatch(t, tr.leader, marshalBatch(t, items))
		if code != http.StatusOK || len(out.Results) != n {
			t.Fatalf("batch of %d: status %d body %s", n, code, raw)
		}
		check(fmt.Sprintf("first of a %d-item batch", n), out.Results[0].Result)
	}
}

// TestShardQueryRouteRefusals drives the frame route's own checks: what the
// decoder cannot know — whether a range fits this slab — is refused per item
// inside the evaluating epoch, a frame over the item limit or with a broken
// checksum is refused whole, and to the leader's engine each is a permanent
// error: the shard is up, so it is not marked down.
func TestShardQueryRouteRefusals(t *testing.T) {
	var garble atomic.Bool // replace every scatter frame to shard 1 with garbage
	tr := newTier(t, tierSpec{shards: 2, hook: func(host string, r *http.Request) fault {
		if host == "shard1" && r.URL.Path == "/shard/query" && garble.Load() {
			r.Body, r.ContentLength = io.NopCloser(strings.NewReader("not a frame")), int64(len("not a frame"))
		}
		return pass
	}})
	url := tr.shards[0].URL // shard 0's slab is 5 × 8
	eng := shard.NewRemoteEngine(0, url, shard.RemoteOptions{HedgeAfter: -1, HTTPClient: tr.w.client})
	ctx := context.Background()
	inside := ndarray.Region{{Lo: 1, Hi: 4}, {Lo: 0, Hi: 7}}
	parts, err := eng.SumBatchFull(ctx, []ndarray.Region{inside}, nil)
	if want := naive.SumInt64(tr.oracle, inside, nil); err != nil || parts[0].Value != want {
		t.Fatalf("sum inside the slab = %v, %v, oracle %d", parts, err, want)
	}
	for name, regions := range map[string][]ndarray.Region{
		"a range past the slab's edge": {inside, {{Lo: 1, Hi: 5}, {Lo: 0, Hi: 7}}},
		"a region of another rank":     {{{Lo: 0, Hi: 1}}},
		"more items than the limit":    make([]ndarray.Region, 1025),
	} {
		for k := range regions {
			if regions[k] == nil {
				regions[k] = inside
			}
		}
		if _, err := eng.SumBatchFull(ctx, regions, nil); err == nil || errors.Is(err, shard.ErrShardDown) || eng.Down() {
			t.Fatalf("%s: err = %v, engine down = %v; want a permanent error and the shard left up", name, err, eng.Down())
		}
	}
	post := func(body []byte) int {
		resp, err := tr.w.client.Post(url+"/shard/query", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	frame, err := wal.SealRecord(shard.AppendQueries(make([]byte, wal.FrameSize), []shard.Item{{Op: shard.OpMax, Local: inside}}))
	if err != nil {
		t.Fatal(err)
	}
	if code := post(frame); code != http.StatusOK {
		t.Fatalf("a valid frame answered %d", code)
	}
	v1 := bytes.Clone(frame)
	v1[wal.FrameSize] = 1
	if _, err := wal.SealRecord(v1); err != nil {
		t.Fatal(err)
	}
	if code := post(v1); code != http.StatusBadRequest {
		t.Fatalf("a version-1 frame answered %d, want 400", code)
	}
	frame[len(frame)-1] ^= 1
	if code := post(frame); code != http.StatusBadRequest {
		t.Fatalf("a frame with a broken checksum answered %d, want 400", code)
	}
	if code := post(make([]byte, 9<<20)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a 9 MiB frame answered %d, want 413", code)
	}
	// A leader whose shard refuses its frame (400, a permanent error) answers
	// 503 and says the query failed, not that it was canceled.
	garble.Store(true)
	code, body := getBody(t, tr.leader, "/query?op=sum")
	if code != http.StatusServiceUnavailable || strings.Contains(body, "cancel") || !strings.Contains(body, "query failed") {
		t.Fatalf("a sum through a shard that refuses its frame answered %d %s, want 503 and \"query failed\"", code, body)
	}
	garble.Store(false)

	url = tr.bootShard("fresh").URL
	if code := post(frame); code != http.StatusServiceUnavailable {
		t.Fatalf("a shard still awaiting its state answered a frame with %d, want 503", code)
	}
}

// TestShardBodiesNeedNoLength: a shard reads a scatter frame and update
// records sent without a declared length (chunked) as it reads any request
// body, and still refuses one past maxBodyBytes with 413.
func TestShardBodiesNeedNoLength(t *testing.T) {
	tr := newTier(t, tierSpec{shards: 2, hook: func(host string, r *http.Request) fault {
		if strings.HasPrefix(r.URL.Path, "/shard/") {
			r.ContentLength = -1
		}
		return pass
	}})
	waitFor(t, "both shards up", func() bool { return tr.leader.Health().Ready })
	tr.commit(3, 4, 5)
	tr.commit(7, 1, -2)
	want := naive.SumInt64(tr.oracle, tr.oracle.Bounds(), nil)
	if sum, code := sumOf(t, tr.leader, "/query?op=sum"); code != http.StatusOK || sum.Partial || sum.Value != want {
		t.Fatalf("sum over chunked frames = %+v (status %d), want exact %d", sum, code, want)
	}
	for i, sh := range tr.shards {
		if sh.Seq() != tr.leader.Seq() {
			t.Fatalf("shard %d at seq %d after chunked records, the leader at %d", i, sh.Seq(), tr.leader.Seq())
		}
	}
	for _, path := range []string{"/shard/query", "/shard/apply"} {
		resp, err := tr.w.client.Post(tr.shards[0].URL+path, "application/octet-stream", bytes.NewReader(make([]byte, maxBodyBytes+1)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("a chunked %s body past the cap answered %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestShardItemPanicFailsItsItemAlone: a scatter-frame item whose evaluation
// panics on a shard process fails alone, as status byte 1 beside an item
// answered with its §8 cost, and the shard counts it in cube_http_panic_total. The leader whose
// frame holds such an item sees it refused: it answers 503 and leaves the
// shard up.
func TestShardItemPanicFailsItsItemAlone(t *testing.T) {
	tr := newTier(t, tierSpec{shards: 2})
	waitFor(t, "both shards up", func() bool { return tr.leader.Health().Ready })
	sh := tr.shards[0] // its slab is 5 × 8
	// A one-cell router, which cuts regions along x alone: the second item
	// reads past its cell in y and panics.
	defer sh.poisonApply()()
	panics := seriesValue(exposition(t, sh.Server), "cube_http_panic_total", "")
	items := []shard.Item{
		{Op: shard.OpSum, Local: ndarray.Region{{Lo: 0, Hi: 0}, {Lo: 0, Hi: 0}}},
		{Op: shard.OpSum, Local: ndarray.Region{{Lo: 0, Hi: 0}, {Lo: 0, Hi: 7}}},
	}
	frame, err := wal.SealRecord(shard.AppendQueries(make([]byte, wal.FrameSize), items))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.w.client.Post(sh.URL+"/shard/query", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// A 6-byte header and the seq, then the first sum's 18-byte answer:
	// status, found, value and its accesses.
	payload, err := wal.OpenRecord(body)
	if resp.StatusCode != http.StatusOK || err != nil || len(payload) < 33 || payload[14] != 0 || payload[15] != 0 || binary.LittleEndian.Uint64(payload[24:]) == 0 || payload[32] != 1 {
		t.Fatalf("a frame with a panicking item answered %d %v %x, want the first sum answered with its cost and the second's status 1", resp.StatusCode, err, payload)
	}
	if got := seriesValue(exposition(t, sh.Server), "cube_http_panic_total", ""); got != panics+1 {
		t.Fatalf("cube_http_panic_total = %v after one panicking item, want %v", got, panics+1)
	}
	code, out := getBody(t, tr.leader, "/query?op=avg")
	if code != http.StatusServiceUnavailable || !strings.Contains(out, "refused") || tr.leader.remoteEngines[0].Down() {
		t.Fatalf("an avg through the panicking shard answered %d %s (shard down: %v), want 503, refused and the shard up", code, out, tr.leader.remoteEngines[0].Down())
	}
}

// TestTornGatherNeverServedExact overlaps a whole-cube sum's lock-free gather
// with a commit that lands in both slabs, +1000 at a shard-0 cell and +1 at a
// shard-1 cell, so the oracle only ever holds S + 1001·j. On each of shard 1's
// first six frame arrivals the hook commits and waits up to 200 ms for the
// ack: a lock-free gather's commit is acked at once, and the timeout lets a
// gather that holds the leader's read lock, which the commit waits for, go
// on. The hook commits once shard 0's frame is in, and an acked commit's
// delivery reaches shard 1 before its frame is answered, so a lock-free
// gather is torn. Whatever the interleaving, an answer served as exact is the
// sum at one seq.
func TestTornGatherNeverServedExact(t *testing.T) {
	var tr *tier
	var arrivals atomic.Int64
	var commits sync.WaitGroup
	// settle spins until cond holds, for at most 5 s: the hook runs on a
	// leader goroutine, where the test cannot fail.
	settle := func(cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond() && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	commit := func() {
		commits.Add(1)
		reply, acked := ask(tr.leader, http.MethodPost, "/update?durability=sync", `{"updates":[{"coords":[1,2],"delta":1000},{"coords":[7,3],"delta":1}]}`), make(chan struct{})
		go func() {
			defer commits.Done()
			defer close(acked)
			if a := <-reply; a.code != http.StatusOK {
				t.Errorf("commit answered %d", a.code)
			}
		}()
		select {
		case <-acked:
			settle(func() bool { return tr.shards[1].Seq() == tr.leader.Seq() })
		case <-time.After(200 * time.Millisecond):
		}
	}
	var asked atomic.Bool
	// A frame parks for at most the hook's 200 ms wait; the hedge fires at a
	// twentieth of the deadline, 500 ms.
	tr = newTier(t, tierSpec{shards: 2, opts: Options{ShardTimeout: 10 * time.Second}, hook: func(host string, r *http.Request) fault {
		if host == "shard1" && r.URL.Path == "/shard/query" && !asked.Load() {
			if n := arrivals.Add(1); n <= 6 {
				settle(func() bool { return tr.w.count("shard0", "POST /shard/query") >= int(n) })
				commit()
			}
		}
		return pass
	}})
	s0 := naive.SumInt64(tr.oracle, tr.oracle.Bounds(), nil)
	var got queryResponse
	code := get(t, tr.leader, "/query?op=sum", &got)
	asked.Store(true)
	commits.Wait()
	if d := got.Value - s0; code != http.StatusOK || got.Partial || d%1001 != 0 || *got.LowerBnd != got.Value || *got.UpperBnd != got.Value {
		t.Fatalf("whole-cube sum answered %+v (status %d), S = %d: not S + 1001·j", got, code, s0)
	}
	j := min(arrivals.Load(), 6)
	if code := get(t, tr.leader, "/query?op=sum", &got); code != http.StatusOK || got.Value != s0+1001*j {
		t.Fatalf("after %d commits the sum is %d (status %d), want %d", j, got.Value, code, s0+1001*j)
	}
}

// TestOneDroppedScatterKeepsShardUp refuses the connection of the first update
// delivery to shard 1 before the shard reads it. The record is re-sent and
// acked, so the shard stays up and at the leader's seq: no resync push. A
// read through the leader waits for the delivery, so the checks follow one.
func TestOneDroppedScatterKeepsShardUp(t *testing.T) {
	var dropped atomic.Bool
	tr := newTier(t, tierSpec{shards: 2, opts: Options{Metrics: true}, hook: func(host string, r *http.Request) fault {
		write := r.Method == http.MethodPost && r.URL.Path != "/state" && r.URL.Path != "/shard/query"
		if host == "shard1" && write && dropped.CompareAndSwap(false, true) {
			return refuse
		}
		return pass
	}})
	resyncs := seriesValue(scrape(t, tr.leader), "cube_shard_resync_total", `kind="shard"`)
	if code, _ := postUpdates(t, tr.leader, "sync", []jsonUpdate{{Coords: []int{7, 3}, Delta: 5}}); code != http.StatusOK {
		t.Fatalf("commit answered %d", code)
	}
	tr.oracle.Set(tr.oracle.At(7, 3)+5, 7, 3)
	if code := get(t, tr.leader, "/query?op=sum", nil); code != http.StatusOK {
		t.Fatalf("a read after the commit answered %d", code)
	}
	if !dropped.Load() {
		t.Fatal("no update scatter reached shard 1")
	}
	if h := tr.leader.Health(); !h.Ready || len(h.ShardsDown) != 0 {
		t.Fatalf("after one dropped scatter the leader reads %+v, want ready with no shard down", h)
	}
	body := scrape(t, tr.leader)
	if got := seriesValue(body, "cube_shard_resync_total", `kind="shard"`); got != resyncs {
		t.Fatalf(`cube_shard_resync_total{kind="shard"} went %v → %v, want no resync`, resyncs, got)
	}
	if got := seriesValue(body, "cube_shard_scatter_cells_total", ""); got != 1 {
		t.Fatalf("cube_shard_scatter_cells_total = %v after a one-cell commit, want 1", got)
	}
	if seq := tr.shards[1].Seq(); seq != tr.leader.Seq() {
		t.Fatalf("shard 1 at seq %d, leader at %d", seq, tr.leader.Seq())
	}
	if sum, code := sumOf(t, tr.leader, "/query?op=sum&x=5..9"); code != http.StatusOK || sum.Partial || sum.Value != naive.SumInt64(tr.oracle, tr.region(5, 9, 0, 7), nil) {
		t.Fatalf("sum over shard 1's slab = %+v (status %d)", sum, code)
	}
}

// TestEveryShardHoldsLeaderSeq: commits inside shard 0's slab still move
// shard 1 to the leader's seq — it is sent an empty record — so once a read
// through the leader has waited for the delivery, every up shard reports the
// leader's seq on /readyz.
func TestEveryShardHoldsLeaderSeq(t *testing.T) {
	tr := newTier(t, tierSpec{shards: 2})
	for k := 0; k < 2; k++ {
		if code, _ := postUpdates(t, tr.leader, "sync", []jsonUpdate{{Coords: []int{2, k}, Delta: 3}}); code != http.StatusOK {
			t.Fatalf("commit %d answered %d", k, code)
		}
		tr.oracle.Set(tr.oracle.At(2, k)+3, 2, k)
	}
	if code := get(t, tr.leader, "/query?op=sum&x=0..4", nil); code != http.StatusOK {
		t.Fatalf("a read after the commits answered %d", code)
	}
	lead := tr.leader.Health().Seq
	for i, n := range tr.shards {
		if got := n.Health().Seq; got != lead || lead != 2 {
			t.Fatalf("shard %d at seq %d, leader at %d (want 2)", i, got, lead)
		}
	}
	if sum, code := sumOf(t, tr.leader, "/query?op=sum"); code != http.StatusOK || sum.Value != naive.SumInt64(tr.oracle, tr.oracle.Bounds(), nil) {
		t.Fatalf("whole-cube sum = %+v (status %d)", sum, code)
	}
}

// TestCommitsDoNotWaitOnShards parks shard 1's first update delivery. Eight
// sync commits are acked while it is parked, and a sum sent during the park
// answers only after the release, with all eight in it: a commit waits on no
// shard, and a read waits for the delivery of every commit acked before it.
func TestCommitsDoNotWaitOnShards(t *testing.T) {
	g := newGate(t)
	tr := newTier(t, tierSpec{shards: 2, opts: Options{ShardTimeout: 10 * time.Second}, hook: func(host string, r *http.Request) fault {
		if host == "shard1" && r.URL.Path == "/shard/apply" {
			return g.hold(r) // a hedged duplicate parks too
		}
		return pass
	}})
	for k := 0; k < 8; k++ {
		body := fmt.Sprintf(`{"updates":[{"coords":[%d,1],"delta":%d},{"coords":[%d,2],"delta":-3}]}`, k, 10+k, 9-k)
		if a := within(t, fmt.Sprintf("commit %d while shard 1's delivery is parked", k+1), ask(tr.leader, http.MethodPost, "/update?durability=sync", body)); a.code != http.StatusOK {
			t.Fatalf("commit %d answered %d", k+1, a.code)
		}
		tr.oracle.Set(tr.oracle.At(k, 1)+int64(10+k), k, 1)
		tr.oracle.Set(tr.oracle.At(9-k, 2)-3, 9-k, 2)
	}
	g.awaitArrival(t)

	done := ask(tr.leader, http.MethodGet, "/query?op=sum", "")
	select {
	case a := <-done:
		t.Fatalf("a sum sent during the park answered %+v (status %d) before the release", a.out, a.code)
	case <-time.After(100 * time.Millisecond): // what is checked is that nothing answers
	}
	g.open()
	// Shard 1 takes its records only now, so an exact sum with all eight in
	// it answered after the release.
	want := naive.SumInt64(tr.oracle, tr.oracle.Bounds(), nil)
	if a := within(t, "the sum after the release", done); a.code != http.StatusOK || a.out.Partial || a.out.Value != want {
		t.Fatalf("sum after the release = %+v (status %d), want exact %d", a.out, a.code, want)
	}
	if h := tr.leader.Health(); !h.Ready || h.Seq != 8 {
		t.Fatalf("after the release the leader reads %+v, want ready at seq 8", h)
	}
}

// TestBacklogDeliveredWithinBodyCap parks shard 1's first update delivery and
// commits until the records queued behind it pass maxBodyBytes. Released, the
// sender cuts the backlog into exchanges that each fit the cap, so the shard
// stays up, takes no resync push, and the sum through the leader is exact.
func TestBacklogDeliveredWithinBodyCap(t *testing.T) {
	g := newGate(t)
	tr := newTier(t, tierSpec{cube: cube.New(cube.NewIntDimension("x", 0, 511), cube.NewIntDimension("y", 0, 63)), shards: 2,
		opts: Options{Metrics: true, ShardTimeout: 100 * time.Second}, hook: func(host string, r *http.Request) fault {
			if host == "shard1" && r.URL.Path == "/shard/apply" {
				return g.hold(r) // a hedged duplicate parks too
			}
			return pass
		}})
	resyncs := seriesValue(scrape(t, tr.leader), "cube_shard_resync_total", `kind="shard"`)

	// Each commit adds 1 to every cell of shard 1's slab, x 256..511: a
	// record of 16 bytes per cell on the wire.
	var ups []ingest.Update
	for x := 256; x < 512; x++ {
		for y := 0; y < 64; y++ {
			ups = append(ups, ingest.Update{Coords: []int{x, y}, Delta: 1})
		}
	}
	commits := 2 + maxBodyBytes/(len(ups)*16)
	for k := 0; k < commits; k++ {
		ack, err := tr.leader.SubmitUpdates(ups, true)
		if err != nil {
			t.Fatal(err)
		}
		if res := <-ack; res.Err != nil {
			t.Fatal(res.Err)
		}
		if k == 0 {
			g.awaitArrival(t)
		}
	}
	for _, u := range ups {
		tr.oracle.Set(tr.oracle.At(u.Coords...)+int64(commits), u.Coords...)
	}
	g.open()

	if sum, code := sumOf(t, tr.leader, "/query?op=sum"); code != http.StatusOK || sum.Partial || sum.Value != naive.SumInt64(tr.oracle, tr.oracle.Bounds(), nil) {
		t.Fatalf("sum after the backlog = %+v (status %d), want exact %d", sum, code, naive.SumInt64(tr.oracle, tr.oracle.Bounds(), nil))
	}
	if h := tr.leader.Health(); !h.Ready || h.Seq != uint64(commits) {
		t.Fatalf("after the backlog the leader reads %+v, want ready at seq %d", h, commits)
	}
	if got := seriesValue(scrape(t, tr.leader), "cube_shard_resync_total", `kind="shard"`); got != resyncs {
		t.Fatalf(`cube_shard_resync_total{kind="shard"} went %v → %v, want no resync`, resyncs, got)
	}
	if n := tr.w.count("shard1", "POST /shard/apply"); n < 3 {
		t.Fatalf("shard 1 took %d /shard/apply exchanges, want the parked one and a backlog cut in at least two", n)
	}
	if seq := tr.shards[1].Seq(); seq != uint64(commits) {
		t.Fatalf("shard 1 at seq %d, want %d", seq, commits)
	}
}

// TestDeliveryPanicMarksShardsDown: a delivery that panics is recovered on
// the sender's loop and marks every remote engine down. The process lives on:
// a commit is acked, /query answers partially with bounds around the oracle
// while the shards refuse state pushes, and once they take them again the
// resync loop brings exact answers back.
func TestDeliveryPanicMarksShardsDown(t *testing.T) {
	var refusing atomic.Bool
	tr := newTier(t, tierSpec{shards: 2, hook: func(host string, r *http.Request) fault {
		if r.URL.Path == "/state" && refusing.Load() {
			return refuse // holds the shard down
		}
		return pass
	}})
	refusing.Store(true)
	pushes := tr.w.count("shard1", "POST /state")
	tr.leader.poisonDelivery()
	// The sender marks both engines down, then wakes the resync loop, whose
	// refused pushes keep them down.
	tr.w.await(t, "shard1", "POST /state", pushes+1)
	if h := tr.leader.Health(); len(h.ShardsDown) != 2 {
		t.Fatalf("after a panicking delivery the leader reads %+v, want both shards down", h)
	}
	if code, _ := postUpdates(t, tr.leader, "sync", []jsonUpdate{{Coords: []int{7, 3}, Delta: 5}}); code != http.StatusOK {
		t.Fatalf("commit after the panic answered %d", code)
	}
	tr.oracle.Set(tr.oracle.At(7, 3)+5, 7, 3)
	want := naive.SumInt64(tr.oracle, tr.oracle.Bounds(), nil)
	if sum, code := sumOf(t, tr.leader, "/query?op=sum"); code != http.StatusOK || !sum.Partial || *sum.LowerBnd > want || want > *sum.UpperBnd {
		t.Fatalf("sum with both shards down = %+v (status %d), want partial around %d", sum, code, want)
	}
	refusing.Store(false)
	waitFor(t, "the resync loop to bring both shards up", func() bool { return tr.leader.Health().Ready })
	if exact, code := sumOf(t, tr.leader, "/query?op=sum"); code != http.StatusOK || exact.Partial || exact.Value != want {
		t.Fatalf("sum after the resync = %+v (status %d), want exact %d", exact, code, want)
	}
}

// TestShardApplyPanicResyncs: a delivery whose apply panics on a shard
// releases the shard's write lock and is answered with an error; the leader
// marks the shard down and resyncs it with /state, and sums are exact again.
// Until the lock is seen free, the hook refuses shard 0's /state pushes and
// any second delivery: at a shard that kept the lock, either would wait on
// it forever.
func TestShardApplyPanicResyncs(t *testing.T) {
	var holding atomic.Bool
	var applies atomic.Int32
	tr := newTier(t, tierSpec{shards: 2, hook: func(host string, r *http.Request) fault {
		if host == "shard0" && holding.Load() && (r.URL.Path == "/state" || r.URL.Path == "/shard/apply" && applies.Add(1) > 1) {
			return refuse
		}
		return pass
	}})
	waitFor(t, "both shards up", func() bool { return tr.leader.Health().Ready })
	holding.Store(true)
	sh := tr.shards[0]
	sh.poisonApply()   // the resync builds a fresh router
	tr.commit(3, 4, 5) // shard 0's slab: x 0..4
	waitFor(t, "the leader to mark shard 0 down", func() bool { return tr.leader.remoteEngines[0].Down() })
	waitFor(t, "shard 0's write lock to be free", func() bool {
		if !sh.mu.TryLock() {
			return false
		}
		sh.mu.Unlock()
		return true
	})
	holding.Store(false)
	waitFor(t, "the resync loop to bring shard 0 up", func() bool { return tr.leader.Health().Ready })
	want := naive.SumInt64(tr.oracle, tr.oracle.Bounds(), nil)
	if sum, code := sumOf(t, tr.leader, "/query?op=sum"); code != http.StatusOK || sum.Partial || sum.Value != want {
		t.Fatalf("sum after the resync = %+v (status %d), want exact %d", sum, code, want)
	}
}

// TestShardRefusesClientUpdates: a shard process is a replica. A client's
// POST /update sent straight to it is refused with 403, before and after its
// first state push, and changes nothing; it runs no ingest pipeline.
func TestShardRefusesClientUpdates(t *testing.T) {
	tr := newTier(t, tierSpec{shards: 2})
	for _, n := range []*node{tr.shards[0], tr.bootShard("fresh")} {
		if code, _ := postBatch(t, n, []map[string]any{{"coords": []int{0, 0}, "delta": 5}}); code != http.StatusForbidden {
			t.Fatalf("a client /update to a shard answered %d, want 403", code)
		}
		if n.batcher != nil || n.Seq() != 0 {
			t.Fatalf("shard runs a batcher (%v) or moved to seq %d", n.batcher != nil, n.Seq())
		}
	}
	if sum, code := sumOf(t, tr.leader, "/query?op=sum"); code != http.StatusOK || sum.Value != naive.SumInt64(tr.oracle, tr.oracle.Bounds(), nil) {
		t.Fatalf("whole-cube sum = %+v (status %d)", sum, code)
	}
}

// TestShardRefusesLocalDurability: a shard's state is the leader's to push,
// so a local WAL or snapshot is refused at construction. One used to be
// accepted, and after a push the shard could not reboot from it.
func TestShardRefusesLocalDurability(t *testing.T) {
	dir := t.TempDir()
	for _, o := range []Options{
		{WALPath: filepath.Join(dir, "u.wal")},
		{WALPath: filepath.Join(dir, "u.wal"), SnapshotPath: filepath.Join(dir, "c.snap")},
		{SnapshotPath: filepath.Join(dir, "c.snap")},
	} {
		o.Fanout, o.AcceptState, o.Logf = 2, true, func(string, ...any) {}
		if s, err := NewWithOptions(cube.New(cube.NewIntDimension("d0", 0, 0)), o); err == nil {
			s.Close()
			t.Fatalf("a shard with WAL %q and snapshot %q was built", o.WALPath, o.SnapshotPath)
		}
	}
}

// pushSlab installs cells at seq on a shard process, as the leader's /state
// push does.
func pushSlab(t testing.TB, url string, seq uint64, cells *ndarray.Array[int64]) {
	t.Helper()
	var b bytes.Buffer
	if err := persist.WriteSnapshot(&b, seq, cells); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/state", "application/octet-stream", &b)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("state push answered %s", resp.Status)
	}
}

// sealedBatch is a leader's update record: one sealed WAL batch.
func sealedBatch(t testing.TB, seq uint64, ups ...wal.Update) []byte {
	t.Helper()
	rec, err := wal.AppendBatch(make([]byte, wal.FrameSize), wal.Batch{Seq: seq, Updates: ups})
	if err == nil {
		rec, err = wal.SealRecord(rec)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestShardApplyOnce: a shard applies each of the leader's records once, in
// seq order. The same record twice, and an older record after a newer one,
// are acked and applied once; a gap gets 409 and bad coordinates 400, with
// nothing changed. A leader's engine whose record the shard refuses marks
// itself down; one whose record the shard already holds stays up.
func TestShardApplyOnce(t *testing.T) {
	p, err := NewWithOptions(cube.New(cube.NewIntDimension("d0", 0, 0)), Options{BlockSize: 2, Fanout: 2, AcceptState: true, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(func() { ts.Close(); p.Close() })
	url := ts.URL
	slab := ndarray.New[int64](4, 3)
	slab.Set(10, 1, 2)
	pushSlab(t, url, 5, slab)
	state := func() (seq uint64, cell int64) {
		p.mu.RLock()
		defer p.mu.RUnlock()
		return p.seq.Load(), p.cube.Data().At(1, 2)
	}
	for k, step := range []struct {
		rec  []byte
		code int
		seq  uint64
		cell int64
		what string
	}{
		{sealedBatch(t, 6, wal.Update{Coords: []int{1, 2}, Delta: 7}), 200, 6, 17, "the next record"},
		{sealedBatch(t, 6, wal.Update{Coords: []int{1, 2}, Delta: 7}), 200, 6, 17, "the same record again"},
		{sealedBatch(t, 7, wal.Update{Coords: []int{1, 2}, Delta: 1}), 200, 7, 18, "the record after it"},
		{sealedBatch(t, 6, wal.Update{Coords: []int{1, 2}, Delta: 7}), 200, 7, 18, "an older record after a newer one"},
		{sealedBatch(t, 9, wal.Update{Coords: []int{1, 2}, Delta: 100}), 409, 7, 18, "a gap"},
		{sealedBatch(t, 8, wal.Update{Coords: []int{1, 2}, Delta: 100}, wal.Update{Coords: []int{4, 0}, Delta: 1}), 400, 7, 18, "a cell outside the slab"},
		{sealedBatch(t, 8), 200, 8, 18, "an empty record"},
	} {
		resp, err := http.Post(url+"/shard/apply", "application/octet-stream", bytes.NewReader(step.rec))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if seq, cell := state(); resp.StatusCode != step.code || seq != step.seq || cell != step.cell {
			t.Fatalf("step %d, %s: status %d, seq %d, cell %d; want %d, %d, %d", k, step.what, resp.StatusCode, seq, cell, step.code, step.seq, step.cell)
		}
	}

	ctx := context.Background()
	up := []wal.Update{{Coords: []int{1, 2}, Delta: 50}}
	held := shard.NewRemoteEngine(0, url, shard.RemoteOptions{HedgeAfter: -1})
	if err := held.Deliver(ctx, []wal.Batch{{Seq: 8, Updates: up}}, 0); err != nil || held.Down() {
		t.Fatalf("an engine re-sending the held record 8: err %v, down %v", err, held.Down())
	}
	ahead := shard.NewRemoteEngine(0, url, shard.RemoteOptions{HedgeAfter: -1})
	if err := ahead.Deliver(ctx, []wal.Batch{{Seq: 10, Updates: up}}, 0); err == nil || !ahead.Down() {
		t.Fatalf("an engine sending record 10 to a shard at 8: err %v, down %v; want an error and the engine down", err, ahead.Down())
	}
	if seq, cell := state(); seq != 8 || cell != 18 {
		t.Fatalf("shard at seq %d with cell %d after the engines' records, want 8 and 18", seq, cell)
	}
}

// FuzzShardApply feeds raw bodies to POST /shard/apply on a shard holding a
// 4×3 slab at seq 5. Whatever the bytes, the handler answers without a panic,
// and a body it refuses leaves the seq and every cell as they were; an
// accepted one is a run of records, those above seq 5 applied in order.
func FuzzShardApply(f *testing.F) {
	s, err := NewWithOptions(cube.New(cube.NewIntDimension("d0", 0, 0)), Options{
		BlockSize: 2, Fanout: 2, AcceptState: true, Logf: func(string, ...any) {},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	slab := ndarray.New[int64](4, 3)
	for k := range slab.Data() {
		slab.Data()[k] = int64(k*7%11 - 3)
	}

	valid := sealedBatch(f, 6, wal.Update{Coords: []int{3, 2}, Delta: 4}, wal.Update{Coords: []int{0, 1}, Delta: -9})
	next := sealedBatch(f, 7, wal.Update{Coords: []int{2, 0}, Delta: 5})
	join := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	f.Add(valid)
	f.Add(sealedBatch(f, 5, wal.Update{Coords: []int{1, 1}, Delta: 2}))     // held
	f.Add(sealedBatch(f, 8, wal.Update{Coords: []int{1, 1}, Delta: 2}))     // gap
	f.Add(sealedBatch(f, 6, wal.Update{Coords: []int{4, 0}, Delta: 2}))     // outside the slab
	f.Add(sealedBatch(f, 6, wal.Update{Coords: []int{1, 1, 0}, Delta: 2}))  // wrong rank
	f.Add(sealedBatch(f, 6))                                                // empty
	f.Add(valid[:len(valid)-3])                                             // truncated
	f.Add(append(valid[:len(valid)-1:len(valid)-1], valid[len(valid)-1]^1)) // bad CRC
	f.Add(join(valid, next))                                                // two records
	f.Add(join(sealedBatch(f, 5), valid, next))                             // three, the first held
	f.Add(join(valid, valid))                                               // a duplicate seq
	f.Add(join(valid, sealedBatch(f, 8)))                                   // a gap between records
	f.Add(join(valid, next[:len(next)-3]))                                  // a torn second record
	f.Add(join(valid, next[:len(next)-1], []byte{next[len(next)-1] ^ 1}))   // a corrupt second record
	f.Add(join(valid, sealedBatch(f, 7, wal.Update{Coords: []int{9, 0}})))  // a second record outside the slab
	f.Add([]byte(`{"updates":[{"coords":[0,0],"delta":5}]}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		if err := s.resetState(5, slab.Clone()); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/apply", bytes.NewReader(body)))
		want, wantSeq := slab.Clone(), uint64(5)
		switch rec.Code {
		case http.StatusOK:
			bs, _, _ := wal.ScanStream(bytes.NewReader(body))
			for _, b := range bs {
				if b.Seq == wantSeq+1 {
					for _, u := range b.Updates {
						want.Set(want.At(u.Coords...)+u.Delta, u.Coords...)
					}
					wantSeq = b.Seq
				}
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("answered %d: %s", rec.Code, rec.Body)
		}
		s.mu.RLock()
		seq, cells := s.seq.Load(), slices.Clone(s.cube.Data().Data())
		s.mu.RUnlock()
		if seq != wantSeq || !slices.Equal(cells, want.Data()) {
			t.Fatalf("status %d left seq %d and cells %v, want %d and %v", rec.Code, seq, cells, wantSeq, want.Data())
		}
		sum := httptest.NewRecorder()
		h.ServeHTTP(sum, httptest.NewRequest(http.MethodGet, "/query?op=sum", nil))
		var out queryResponse
		if err := json.NewDecoder(sum.Body).Decode(&out); err != nil || sum.Code != http.StatusOK || out.Value != naive.SumInt64(want, want.Bounds(), nil) {
			t.Fatalf("whole-slab sum %+v, status %d, %v; want %d", out, sum.Code, err, naive.SumInt64(want, want.Bounds(), nil))
		}
	})
}
