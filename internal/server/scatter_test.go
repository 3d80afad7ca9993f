package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
	"rangecube/internal/shard"
	"rangecube/internal/wal"
)

// scatterTier is a leader over two shard servers, each behind a pass-through
// gate that shows the test every request the leader sends it (and may hold
// it). x, the larger dimension, is split: shard 0 owns x 0..4, shard 1 x 5..9.
type scatterTier struct {
	leader *Server
	lts    *httptest.Server
	shards [2]*shardProc
	oracle *ndarray.Array[int64]

	mu   sync.Mutex
	seen [2]map[string]int // requests per shard, by "METHOD /path"
}

func (tr *scatterTier) counts(i int) map[string]int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make(map[string]int, len(tr.seen[i]))
	for k, v := range tr.seen[i] {
		out[k] = v
	}
	return out
}

// newScatterTier boots the tier; hook (nillable) runs in the gate of shard i
// before each request is passed on.
func newScatterTier(t *testing.T, opts Options, hook func(shard int, r *http.Request)) *scatterTier {
	t.Helper()
	c := cube.New(cube.NewIntDimension("x", 0, 9), cube.NewIntDimension("y", 0, 7))
	for x := 0; x < 10; x++ {
		for y := 0; y < 8; y++ {
			c.Data().Set(int64((x*37+y*11)%61-20), x, y)
		}
	}
	tr := &scatterTier{oracle: c.Data().Clone()}
	for i := range tr.shards {
		tr.seen[i] = map[string]int{}
		p := startShardProc(t, "127.0.0.1:0")
		tr.shards[i] = p
		gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tr.mu.Lock()
			tr.seen[i][r.Method+" "+r.URL.Path]++
			tr.mu.Unlock()
			if hook != nil {
				hook(i, r)
			}
			body, _ := io.ReadAll(r.Body)
			req, err := http.NewRequest(r.Method, "http://"+p.addr+r.URL.RequestURI(), bytes.NewReader(body))
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			req.Header = r.Header.Clone()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
		}))
		t.Cleanup(func() { gate.Close(); p.stop() })
		opts.ShardURLs = append(opts.ShardURLs, gate.URL)
	}
	opts.BlockSize, opts.Fanout, opts.ShardProbe = 3, 3, -1
	opts.Logf = func(string, ...any) {}
	leader, err := NewWithOptions(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.leader, tr.lts = leader, httptest.NewServer(leader.Handler())
	t.Cleanup(func() { tr.lts.Close(); leader.Close() })
	if h := leader.Health(); len(h.ShardsDown) != 0 {
		t.Fatalf("tier booted with shards down: %+v", h)
	}
	return tr
}

func decodeJSON(r io.Reader, out any) { json.NewDecoder(r).Decode(out) }

func (tr *scatterTier) region(x0, x1, y0, y1 int) ndarray.Region {
	return ndarray.Region{{Lo: x0, Hi: x1}, {Lo: y0, Hi: y1}}
}

// TestLeaderHoldsNoLockAcrossShardReads parks shard 1's reads mid-flight under
// a max and an avg that both need it. Neither may be holding the leader's read
// lock there: a commit into shard 0's slab must be acked and a sum over shard
// 0's slab answered while they wait (a read lock held across the round trip
// blocks the commit, and the write-preferring lock then queues every later
// read behind it). Released, both answer with a value the oracle held inside
// their request window.
func TestLeaderHoldsNoLockAcrossShardReads(t *testing.T) {
	parked := make(chan struct{}, 8) // arrivals at the parked route; hedging is off, so two
	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	defer unpark() // before the tier's cleanups: closing a server waits for its parked requests
	tr := newScatterTier(t, Options{ShardTimeout: 20 * time.Second, ShardHedgeAfter: -1},
		func(shard int, r *http.Request) {
			// Every read route this tier has ever used, so the test means the
			// same thing against a build that reads through another one.
			if shard == 1 && r.URL.Path != "/update" && r.URL.Path != "/state" {
				parked <- struct{}{}
				<-release
			}
		})
	prompt := &http.Client{Timeout: 5 * time.Second}

	type answer struct {
		out  queryResponse
		code int
	}
	ask := func(q string) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			var a answer
			resp, err := http.Get(tr.lts.URL + q)
			if err == nil {
				a.code = resp.StatusCode
				decodeJSON(resp.Body, &a.out)
				resp.Body.Close()
			}
			ch <- a
		}()
		return ch
	}
	maxR, avgR := tr.region(2, 8, 0, 7), tr.region(3, 6, 1, 6)
	_, maxBefore, _ := naive.Max(tr.oracle, maxR, nil)
	avgBefore := naive.SumInt64(tr.oracle, avgR, nil)
	maxCh := ask("/query?op=max&x=2..8")
	avgCh := ask("/query?op=avg&x=3..6&y=1..6")
	for i := 0; i < 2; i++ {
		select {
		case <-parked:
		case <-time.After(5 * time.Second):
			t.Fatal("the max and the avg never reached shard 1")
		}
	}

	// A commit inside both parked regions, in shard 0's slab.
	resp, err := prompt.Post(tr.lts.URL+"/update?durability=sync", "application/json",
		strings.NewReader(`{"updates":[{"coords":[3,3],"delta":1000}]}`))
	if err != nil {
		t.Fatalf("commit into shard 0's slab while shard 1's reads are parked: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit answered %s", resp.Status)
	}
	tr.oracle.Set(tr.oracle.At(3, 3)+1000, 3, 3)
	resp, err = prompt.Get(tr.lts.URL + "/query?op=sum&x=0..4")
	if err != nil {
		t.Fatalf("sum over shard 0's slab while shard 1's reads are parked: %v", err)
	}
	var sum queryResponse
	decodeJSON(resp.Body, &sum)
	resp.Body.Close()
	if want := naive.SumInt64(tr.oracle, tr.region(0, 4, 0, 7), nil); resp.StatusCode != http.StatusOK || sum.Value != want {
		t.Fatalf("sum over shard 0's slab = %+v (%s), oracle %d", sum, resp.Status, want)
	}

	unpark()
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
	tr := newScatterTier(t, Options{TraceSample: 1}, nil)
	const frame = "POST /shard/query"
	delta := func(before [2]map[string]int) (frames [2]int, public int) {
		for i := range before {
			after := tr.counts(i)
			frames[i] = after[frame] - before[i][frame]
			public += after["GET /query"] + after["POST /query/batch"]
		}
		return frames, public
	}
	snap := func() [2]map[string]int { return [2]map[string]int{tr.counts(0), tr.counts(1)} }

	// 16 items, every op, every region spanning both slabs.
	var items []batchQuery
	ops := []string{"sum", "avg", "max", "min", "count"}
	for k := 0; k < 16; k++ {
		items = append(items, batchQuery{Op: ops[k%len(ops)], Select: map[string]string{
			"x": fmt.Sprintf("%d..%d", k%5, 5+k%5), "y": fmt.Sprintf("%d..%d", k%3, 4+k%4)}})
	}
	before := snap()
	resp, err := tr.lts.Client().Post(tr.lts.URL+"/query/batch", "application/json", bytes.NewReader(marshalBatch(t, items)))
	if err != nil {
		t.Fatal(err)
	}
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
	if frames, public := delta(before); frames != [2]int{1, 1} || public != 0 {
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

	before = snap()
	var mx queryResponse
	if code := get(t, tr.lts, "/query?op=max&x=1..8", &mx); code != http.StatusOK {
		t.Fatalf("GET max: status %d", code)
	}
	if frames, public := delta(before); frames != [2]int{1, 1} || public != 0 {
		t.Fatalf("GET /query?op=max sent %v scatter frames and %d public reads, want [1 1] and 0", frames, public)
	}

	before = snap()
	one := marshalBatch(t, []batchQuery{
		{Op: "sum", Select: map[string]string{"x": "0..4"}},
		{Op: "min", Select: map[string]string{"x": "1..3", "y": "2..6"}},
		{Op: "avg", Select: map[string]string{"x": "2"}},
	})
	if code, _, raw := postQueryBatch(t, tr.lts, one); code != http.StatusOK {
		t.Fatalf("one-slab batch: status %d body %s", code, raw)
	}
	if frames, public := delta(before); frames != [2]int{1, 0} || public != 0 {
		t.Fatalf("a batch inside shard 0's slab sent %v scatter frames and %d public reads, want [1 0] and 0", frames, public)
	}

}

// TestRemoteSumBoundsOneRule: a healthy shard contributes its exact sub-sum as
// its own bounds however many sub-queries the exchange happened to carry, so
// the same region reports the same value and bounds — both the value — asked
// alone, as a batch of one, or among fifteen others.
func TestRemoteSumBoundsOneRule(t *testing.T) {
	tr := newScatterTier(t, Options{}, nil)
	want := naive.SumInt64(tr.oracle, tr.region(2, 8, 1, 6), nil)
	sel := map[string]string{"x": "2..8", "y": "1..6"}
	check := func(how string, r *queryResponse) {
		t.Helper()
		if r == nil || r.Value != want || r.LowerBnd == nil || *r.LowerBnd != want || *r.UpperBnd != want || r.Partial {
			t.Fatalf("%s: %+v, want value and both bounds %d", how, r, want)
		}
	}
	var alone queryResponse
	if code := get(t, tr.lts, "/query?op=sum&x=2..8&y=1..6", &alone); code != http.StatusOK {
		t.Fatalf("GET: status %d", code)
	}
	check("GET /query", &alone)
	for _, n := range []int{1, 16} {
		items := []batchQuery{{Op: "sum", Select: sel}}
		for k := 1; k < n; k++ {
			items = append(items, batchQuery{Op: "sum", Select: map[string]string{"x": strconv.Itoa(k % 10)}})
		}
		code, out, raw := postQueryBatch(t, tr.lts, marshalBatch(t, items))
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
	tr := newScatterTier(t, Options{}, nil)
	url := "http://" + tr.shards[0].addr // shard 0's slab is 5 × 8
	eng := shard.NewRemoteEngine(0, url, shard.RemoteOptions{HedgeAfter: -1})
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
		resp, err := http.Post(url+"/shard/query", "application/octet-stream", bytes.NewReader(body))
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
	frame[len(frame)-1] ^= 1
	if code := post(frame); code != http.StatusBadRequest {
		t.Fatalf("a frame with a broken checksum answered %d, want 400", code)
	}
	if code := post(make([]byte, 9<<20)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a 9 MiB frame answered %d, want 413", code)
	}
	fresh := startShardProc(t, "127.0.0.1:0")
	t.Cleanup(fresh.stop)
	url = "http://" + fresh.addr
	if code := post(frame); code != http.StatusServiceUnavailable {
		t.Fatalf("a shard still awaiting its state answered a frame with %d, want 503", code)
	}
}
