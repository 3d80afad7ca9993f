package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"rangecube/internal/ndarray"
)

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
	s, err := NewWithOptions(uniqueCube(7), Options{BlockSize: 5, Fanout: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s.qlog = newQueryLog(4)
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
