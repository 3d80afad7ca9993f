package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"rangecube/internal/ndarray"
)

func TestResultCacheUnit(t *testing.T) {
	c := newResultCache(2)
	key := cacheKey("sum", ndarray.Reg(0, 4, 2, 9))
	if key != "sum|0:4|2:9" {
		t.Fatalf("cacheKey = %q", key)
	}
	if _, ok := c.Get(key, 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, 1, queryResponse{Op: "sum", Value: 42})
	if resp, ok := c.Get(key, 1); !ok || resp.Value != 42 {
		t.Fatalf("Get = %+v, %v", resp, ok)
	}
	// A mismatched epoch is a miss AND drops the stale entry.
	if _, ok := c.Get(key, 2); ok {
		t.Fatal("stale epoch served")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry survived: len %d", c.Len())
	}

	// LRU eviction: touch a, insert c → b (least recently used) evicted.
	c.Put("a", 5, queryResponse{Value: 1})
	c.Put("b", 5, queryResponse{Value: 2})
	c.Get("a", 5)
	c.Put("c", 5, queryResponse{Value: 3})
	if _, ok := c.Get("b", 5); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.Get("a", 5); !ok {
		t.Fatal("recently used entry evicted")
	}
	_, _, evictions, _ := c.Stats()
	if evictions != 1 {
		t.Fatalf("evictions = %d", evictions)
	}

	c.Flush()
	if c.Len() != 0 {
		t.Fatal("flush left entries")
	}

	// The disabled cache is a nil receiver everywhere.
	var nilCache *resultCache
	nilCache.Put("x", 1, queryResponse{})
	nilCache.Flush()
	if _, ok := nilCache.Get("x", 1); ok || nilCache.Len() != 0 {
		t.Fatal("nil cache cached something")
	}
	if newResultCache(0) != nil {
		t.Fatal("size 0 should disable the cache")
	}
}

func TestQueryLogRingUnit(t *testing.T) {
	q := newQueryLog(4)
	for i := 0; i < 10; i++ {
		q.Add(ndarray.Reg(i, i))
	}
	got := q.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring holds %d regions, want 4", len(got))
	}
	for i, r := range got {
		if want := 6 + i; r[0].Lo != want {
			t.Fatalf("snapshot[%d] = %v, want lo %d (most recent window, oldest first)", i, r, want)
		}
	}
	// Under capacity: everything, in order.
	q2 := newQueryLog(8)
	q2.Add(ndarray.Reg(1, 2))
	q2.Add(ndarray.Reg(3, 4))
	if got := q2.Snapshot(); len(got) != 2 || got[0][0].Lo != 1 || got[1][0].Lo != 3 {
		t.Fatalf("partial snapshot = %v", got)
	}
	// Stored regions are clones: mutating the caller's buffer must not
	// reach the log.
	buf := ndarray.Reg(7, 8)
	q2.Add(buf)
	buf[0].Lo = 99
	if got := q2.Snapshot(); got[2][0].Lo != 7 {
		t.Fatalf("log aliased the caller's region: %v", got[2])
	}
}

// TestQueryLogWindow drives the ring through the HTTP stack: after more
// queries than the cap, /advise must profile exactly the cap, and the
// window must be the most recent queries.
func TestQueryLogWindow(t *testing.T) {
	s, err := NewWithOptions(uniqueCube(7), Options{BlockSize: 5, Fanout: 4, QueryLogSize: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 10; i++ {
		if code := get(t, ts, fmt.Sprintf("/query?op=sum&age=%d..%d", 1+i, 20+i), nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	var out struct {
		QueriesProfiled int `json:"queries_profiled"`
	}
	if code := get(t, ts, "/advise?space=100000", &out); code != http.StatusOK {
		t.Fatalf("advise status %d", code)
	}
	if out.QueriesProfiled != 4 {
		t.Fatalf("profiled %d queries, want the 4-query window", out.QueriesProfiled)
	}
	// Regions are logged in rank space: age value 1+i is rank i, so the
	// surviving window is queries 6..9.
	win := s.qlog.Snapshot()
	for i, r := range win {
		if want := 6 + i; r[0].Lo != want {
			t.Fatalf("window[%d] starts at age rank %d, want %d", i, r[0].Lo, want)
		}
	}
}

// TestCacheEndToEnd: a repeated query is served from the cache (Cached=true,
// zero accesses, same answer), an update flushes it, and the post-update
// answer reflects the new cells.
func TestCacheEndToEnd(t *testing.T) {
	s, err := NewWithOptions(uniqueCube(7), Options{BlockSize: 5, Fanout: 4, CacheSize: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const q = "/query?op=sum&age=3..40&year=1991..1997"
	var first, second queryResponse
	if code := get(t, ts, q, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Cached {
		t.Fatal("first answer claims to be cached")
	}
	if code := get(t, ts, q, &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !second.Cached || second.Accesses != 0 {
		t.Fatalf("repeat = %+v, want cached with 0 accesses", second)
	}
	if second.Value != first.Value || second.Volume != first.Volume {
		t.Fatalf("cached answer diverges: %+v vs %+v", second, first)
	}

	// The same region spelled differently (different op) is a different key.
	var mx queryResponse
	get(t, ts, "/query?op=max&age=3..40&year=1991..1997", &mx)
	if mx.Cached {
		t.Fatal("op=max served from the op=sum entry")
	}

	// An update must flush: the next read reflects the delta, uncached.
	if code, body := postBatch(t, ts, []map[string]any{{"coords": []int{10, 3, 0}, "delta": 1000}}); code != http.StatusOK {
		t.Fatalf("update: %d %s", code, body)
	}
	var after queryResponse
	if code := get(t, ts, q, &after); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if after.Cached {
		t.Fatal("post-update answer served from the pre-update cache")
	}
	if after.Value != first.Value+1000 {
		t.Fatalf("post-update sum = %d, want %d", after.Value, first.Value+1000)
	}
	if _, _, _, flushes := s.cache.Stats(); flushes != 1 {
		t.Fatalf("flushes = %d, want 1", flushes)
	}
}

// TestAvgEmptyRegion checks the defined empty-region answer shape: explicit
// empty marker, no NaN anywhere (NaN would make json.Marshal fail), no
// division by zero.
func TestAvgEmptyRegion(t *testing.T) {
	s := New(uniqueCube(7), 5, 4)
	empty := ndarray.Region{{Lo: 0, Hi: -1}, {Lo: 0, Hi: 9}, {Lo: 0, Hi: 1}}
	for _, op := range []string{"avg", "sum", "count", "max", "min"} {
		resp, err := s.evalSlot(t.Context(), s.router, true, batchSlot{op: op, region: empty})
		if err != nil {
			t.Fatalf("op=%s over empty region: %v", op, err)
		}
		if !resp.Empty {
			t.Fatalf("op=%s over empty region not marked empty: %+v", op, resp)
		}
		if resp.Value != 0 || resp.Average != 0 || resp.Volume != 0 {
			t.Fatalf("op=%s over empty region = %+v, want zero values", op, resp)
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("op=%s empty answer does not encode: %v", op, err)
		}
	}
}
