package server

import (
	"sync"

	"rangecube/internal/ndarray"
)

// queryLog is the bounded ring buffer behind /advise: it keeps the most
// recent queried regions so the §9 planner advises on current traffic, and
// discards the oldest entries once the cap is reached instead of growing
// without bound under sustained load (or, as before this existed, freezing
// the log at its first 10000 queries forever).
type queryLog struct {
	mu   sync.Mutex
	buf  []ndarray.Region // capacity is the ring size
	next int              // overwrite position once full
	full bool             // buf has wrapped at least once
}

// newQueryLog returns an empty ring of size > 0 regions.
func newQueryLog(size int) *queryLog {
	return &queryLog{buf: make([]ndarray.Region, 0, size)}
}

// Add records one queried region (cloned: callers reuse their buffers).
func (q *queryLog) Add(r ndarray.Region) {
	r = r.Clone()
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.full {
		q.buf = append(q.buf, r)
		if len(q.buf) == cap(q.buf) {
			q.full = true
		}
		return
	}
	q.buf[q.next] = r
	q.next = (q.next + 1) % len(q.buf)
}

// Snapshot returns the logged regions, oldest first. The slice is a copy;
// the regions are the stored clones and must not be mutated.
func (q *queryLog) Snapshot() []ndarray.Region {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.full {
		return append([]ndarray.Region(nil), q.buf...)
	}
	out := make([]ndarray.Region, 0, len(q.buf))
	out = append(out, q.buf[q.next:]...)
	return append(out, q.buf[:q.next]...)
}

// Len reports how many regions are currently held.
func (q *queryLog) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}
