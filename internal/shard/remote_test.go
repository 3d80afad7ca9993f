package shard

import (
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
	"testing"
	"time"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/ndarray"
	"rangecube/internal/wal"
)

// recordSeq decodes the leader seq of a POST /shard/apply body.
func recordSeq(t *testing.T, r *http.Request) uint64 {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Errorf("reading record: %v", err)
		return 0
	}
	payload, err := wal.OpenRecord(body)
	if err != nil {
		t.Errorf("opening record: %v", err)
		return 0
	}
	b, err := wal.DecodeBatch(payload)
	if err != nil {
		t.Errorf("decoding record: %v", err)
	}
	return b.Seq
}

// Reads and update records hedge alike: a record carries its seq, so a
// hedged duplicate that reaches the shard too is applied once there. Both
// copies of the stalled record carry the engine's next seq, and the ack
// advances it. An unset HedgeAfter hedges at a twentieth of the deadline:
// 20 ms under a 400 ms one, inside the 60 ms stall; 500 ms under a 10 s one,
// past it.
func TestUpdateScatterHedgesStalledRecord(t *testing.T) {
	for _, c := range []struct {
		name  string
		opts  RemoteOptions
		hedge bool
	}{
		{"HedgeAfter 5ms", RemoteOptions{Timeout: 2 * time.Second, HedgeAfter: 5 * time.Millisecond}, true},
		{"Timeout/20 of 400ms", RemoteOptions{Timeout: 400 * time.Millisecond}, true},
		{"Timeout/20 of 10s", RemoteOptions{Timeout: 10 * time.Second}, false},
	} {
		t.Run(c.name, func(t *testing.T) { testStalledRecord(t, c.opts, c.hedge) })
	}
}

func testStalledRecord(t *testing.T, opts RemoteOptions, hedge bool) {
	var reads atomic.Int64
	var mu sync.Mutex
	var seqs []uint64
	answer, err := wal.SealRecord(AppendAnswers(make([]byte, wal.FrameSize), 0, []Item{{Local: ndarray.Region{{Lo: 0, Hi: 3}}, Value: 5}}))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Count arrivals before the stall: a canceled hedge loser still
		// arrived, and the assertion is about what was *sent*.
		switch r.URL.Path {
		case "/shard/query":
			reads.Add(1)
		case "/shard/apply":
			seq := recordSeq(t, r)
			mu.Lock()
			seqs = append(seqs, seq)
			mu.Unlock()
		}
		time.Sleep(60 * time.Millisecond)
		switch r.URL.Path {
		case "/shard/query":
			w.Write(answer)
		case "/shard/apply", "/state":
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	opts.HTTPClient = srv.Client()
	e := NewRemoteEngine(0, srv.URL, opts)
	r := ndarray.Region{{Lo: 0, Hi: 3}}
	sent := func(n int) bool {
		if hedge {
			return n >= 2
		}
		return n == 1
	}

	if parts, err := e.SumBatchFull(context.Background(), []ndarray.Region{r}, nil); err != nil || parts[0] != (SumPart{5, 5, 5}) {
		t.Fatalf("stalled read answered %v, %v", parts, err)
	}
	if got := reads.Load(); !sent(int(got)) {
		t.Fatalf("stalled read saw %d requests, want a hedge: %v", got, hedge)
	}

	e.Hold(4, 0, 0)
	if err := e.Sync(context.Background(), nil, 0); err != nil || e.Seq() != 4 {
		t.Fatalf("a push of seq 4 synced the engine at %d: %v", e.Seq(), err)
	}
	for want := uint64(5); want <= 6; want++ {
		if err := e.Apply(context.Background(), []batchsum.IntUpdate{{Coords: []int{1}, Delta: 7}}); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := slices.Clone(seqs)
		seqs = nil
		mu.Unlock()
		if !sent(len(got)) || slices.ContainsFunc(got, func(s uint64) bool { return s != want }) {
			t.Fatalf("stalled record was sent as seqs %v, want seq %d, hedged: %v", got, want, hedge)
		}
	}
}

// A record whose connection drops before the shard answers (the outcome
// unknown to the leader) is re-sent: applied or not, the shard acks it once
// it holds its seq. The engine stays up.
func TestUpdateScatterRetriesDroppedRecord(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seq := recordSeq(t, r); seq != 1 {
			t.Errorf("attempt carried seq %d, want 1", seq)
		}
		if posts.Add(1) > 1 {
			return
		}
		c, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		c.Close() // the client sees EOF with the outcome unknown
	}))
	defer srv.Close()

	e := NewRemoteEngine(0, srv.URL, RemoteOptions{
		Timeout:    2 * time.Second,
		HTTPClient: srv.Client(),
	})
	if err := e.Apply(context.Background(), []batchsum.IntUpdate{{Coords: []int{1}, Delta: 7}}); err != nil {
		t.Fatalf("Apply after one dropped connection: %v", err)
	}
	if e.Down() {
		t.Fatal("engine marked down after a re-sent record was acked")
	}
	if got := posts.Load(); got != 2 {
		t.Fatalf("shard saw %d attempts, want 2 (dropped, then re-sent)", got)
	}
}

// A shed record (429/503) was never applied, so it is re-sent like any
// request.
func TestUpdateScatterRetriesShedding(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shard/apply" {
			http.NotFound(w, r)
			return
		}
		if posts.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
	}))
	defer srv.Close()

	e := NewRemoteEngine(0, srv.URL, RemoteOptions{
		Timeout:    2 * time.Second,
		HTTPClient: srv.Client(),
	})
	if err := e.Apply(context.Background(), []batchsum.IntUpdate{{Coords: []int{1}, Delta: 7}}); err != nil {
		t.Fatal(err)
	}
	if e.Down() {
		t.Fatal("engine marked down after a retried shed")
	}
	if got := posts.Load(); got != 2 {
		t.Fatalf("server saw %d update attempts, want 2 (shed then success)", got)
	}
}

// Hold seeds covering bounds without marking the engine up, and a push that
// fails leaves it down at its old seq with the hold ended, so Deliver fails
// fast again; Apply keeps widening the bounds — the invariant that keeps a
// never-synced shard's missing-slab intervals honest.
func TestHoldSeedsBoundsWithoutMarkingUp(t *testing.T) {
	e := NewRemoteEngine(0, "http://127.0.0.1:0", RemoteOptions{})
	e.MarkDown(errors.New("boot attach failed"))
	e.Hold(3, -3, 9)
	if !e.Down() {
		t.Fatal("Hold cleared the down state")
	}
	if lo, hi := e.CellBounds(); lo != -3 || hi != 9 {
		t.Fatalf("CellBounds = [%d, %d], want [-3, 9]", lo, hi)
	}
	ctx := context.Background()
	if err := e.Deliver(ctx, []wal.Batch{{Seq: 4}}, 0); err != nil {
		t.Fatalf("Deliver under a hold: %v, want the record kept", err)
	}
	if err := e.Sync(ctx, nil, 0); err == nil || !e.Down() || e.Seq() != 0 {
		t.Fatalf("a push to a closed port: err %v, down %v, seq %d; want an error, down, seq 0", err, e.Down(), e.Seq())
	}
	if err := e.Deliver(ctx, []wal.Batch{{Seq: 5}}, 0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("Deliver after a failed Sync: %v, want ErrShardDown", err)
	}
	// A scatter against a down engine still widens the bounds first.
	_ = e.Apply(ctx, []batchsum.IntUpdate{{Coords: []int{0}, Delta: -4}, {Coords: []int{1}, Delta: 2}})
	if lo, hi := e.CellBounds(); lo != -7 || hi != 11 {
		t.Fatalf("CellBounds after Apply = [%d, %d], want [-7, 11]", lo, hi)
	}
}

// panicEngine is an engine whose Answer panics.
type panicEngine struct{ Engine }

func (panicEngine) Answer(context.Context, []Item) error { panic("injected into Answer") }

// panicTransport is a transport whose every round trip panics.
type panicTransport struct{}

func (panicTransport) RoundTrip(*http.Request) (*http.Response, error) {
	panic("injected into the transport")
}

// TestTierGoroutinePanicFailsItsExchange: a panic on one of the tier's own
// goroutines, a router's per-shard fan-out or a remote engine's attempt, fails
// that exchange with ErrPanic and logs its stack; the engine stays up, since
// the fault is the leader's, and the process lives on.
func TestTierGoroutinePanicFailsItsExchange(t *testing.T) {
	var logs []string
	logf := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	logged := func(what string) {
		t.Helper()
		for _, l := range logs {
			if strings.Contains(l, what) && strings.Contains(l, "goroutine ") {
				return
			}
		}
		t.Fatalf("no log line holds %q and a stack: %q", what, logs)
	}

	a := ndarray.New[int64](4, 2)
	m, err := NewMap(a.Shape(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouterEngines(m, []Engine{newLocalEngine(SlabCopy(a, m, 0), 1, 2), panicEngine{}}, nil, logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Answer(context.Background(), []Query{{OpSum, a.Bounds()}}, nil); !errors.Is(err, ErrPanic) {
		t.Fatalf("a batch whose engine panics on its fan-out goroutine: err %v, want ErrPanic", err)
	}
	logged("injected into Answer")

	e := NewRemoteEngine(0, "http://shard", RemoteOptions{HTTPClient: &http.Client{Transport: panicTransport{}}, Logf: logf})
	if _, err := e.SumBatchFull(context.Background(), []ndarray.Region{a.Bounds()}, nil); !errors.Is(err, ErrPanic) || e.Down() {
		t.Fatalf("an exchange whose transport panics: err %v, engine down %v; want ErrPanic and the engine up", err, e.Down())
	}
	logged("injected into the transport")
}
