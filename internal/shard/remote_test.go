package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/ndarray"
	"rangecube/internal/wal"
)

// The hedge must fire for idempotent reads and must NOT fire for update
// scatters: an /update batch carries no idempotency token, so a hedged
// duplicate that both commit would double-apply the deltas and silently
// diverge the shard from the leader.
func TestUpdateScatterNeverHedges(t *testing.T) {
	var gets, posts atomic.Int64
	answer, err := wal.SealRecord(AppendAnswers(make([]byte, wal.FrameSize), []Item{{Local: ndarray.Region{{Lo: 0, Hi: 3}}, Value: 5}}))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Count arrivals before the stall: a canceled hedge loser still
		// arrived, and the assertion is about what was *sent*. The stall
		// outlasts the hedge delay so a hedged duplicate, if armed, always
		// launches before the primary answers.
		switch r.URL.Path {
		case "/shard/query":
			gets.Add(1)
		case "/update":
			posts.Add(1)
		}
		time.Sleep(60 * time.Millisecond)
		switch r.URL.Path {
		case "/shard/query":
			w.Write(answer)
		case "/update":
			w.Write([]byte(`{}`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	e := NewRemoteEngine(0, srv.URL, RemoteOptions{
		Timeout:    2 * time.Second,
		HedgeAfter: 5 * time.Millisecond,
		HTTPClient: srv.Client(),
	})
	r := ndarray.Region{{Lo: 0, Hi: 3}}

	if parts, err := e.SumBatchFull(context.Background(), []ndarray.Region{r}, nil); err != nil || parts[0] != (SumPart{5, 5, 5}) {
		t.Fatalf("stalled read answered %v, %v", parts, err)
	}
	if got := gets.Load(); got < 2 {
		t.Fatalf("stalled read saw %d requests, want >= 2 (hedge must fire)", got)
	}

	if err := e.Apply(context.Background(), []batchsum.IntUpdate{{Coords: []int{1}, Delta: 7}}); err != nil {
		t.Fatal(err)
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("stalled update scatter saw %d requests, want exactly 1 (never hedged)", got)
	}
}

// An ambiguous transport error on an update scatter (connection killed
// mid-exchange: the shard may or may not have committed) must not be
// re-sent. The engine fails the scatter once, marks itself down, and
// leaves recovery to the resync push.
func TestUpdateScatterNoTransportRetry(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
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
	err := e.Apply(context.Background(), []batchsum.IntUpdate{{Coords: []int{1}, Delta: 7}})
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("Apply error = %v, want ErrShardDown", err)
	}
	if !e.Down() {
		t.Fatal("engine not marked down after a failed scatter")
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("server saw %d update attempts, want exactly 1 (ambiguous errors must not be retried)", got)
	}
}

// A shed update (429/503) was never enqueued by the shard, so re-sending it
// cannot double-apply — that retry stays allowed on the write path.
func TestUpdateScatterRetriesShedding(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
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

// SeedCellBounds installs covering bounds without flipping the down state,
// and Apply keeps widening them — the invariant that keeps a never-synced
// shard's missing-slab intervals honest.
func TestSeedCellBoundsIndependentOfDownState(t *testing.T) {
	e := NewRemoteEngine(0, "http://127.0.0.1:0", RemoteOptions{})
	e.MarkDown(errors.New("boot attach failed"))
	e.SeedCellBounds(-3, 9)
	if !e.Down() {
		t.Fatal("SeedCellBounds cleared the down state")
	}
	if lo, hi := e.CellBounds(); lo != -3 || hi != 9 {
		t.Fatalf("CellBounds = [%d, %d], want [-3, 9]", lo, hi)
	}
	// A scatter against a down engine still widens the bounds first.
	_ = e.Apply(context.Background(), []batchsum.IntUpdate{{Coords: []int{0}, Delta: -4}, {Coords: []int{1}, Delta: 2}})
	if lo, hi := e.CellBounds(); lo != -7 || hi != 11 {
		t.Fatalf("CellBounds after Apply = [%d, %d], want [-7, 11]", lo, hi)
	}
}
