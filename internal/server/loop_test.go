package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rangecube/internal/cube"
)

// TestBackoffSchedule: a probe retries at once, then after 1 ms, doubling up
// to a second, and a success starts the schedule over.
func TestBackoffSchedule(t *testing.T) {
	var b backoff
	if b != 0 {
		t.Fatalf("a fresh schedule waits %v before its first attempt, want 0", time.Duration(b))
	}
	want := []time.Duration{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000, 1000, 1000}
	for i, w := range want {
		if got := b.failed(); got != w*time.Millisecond {
			t.Fatalf("wait after failure %d = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	b = 0 // a success
	if got := b.failed(); got != time.Millisecond {
		t.Fatalf("wait after a failure following a success = %v, want 1ms", got)
	}
}

// TestHealthyStorageLoopNeverRuns: the storage loop has no timer while the
// log is healthy, so commits and queries never run its job; entering
// degraded mode wakes it, and it recovers at once.
func TestHealthyStorageLoopNeverRuns(t *testing.T) {
	dir := t.TempDir()
	s, err := NewWithOptions(cube.New(cube.NewIntDimension("x", 0, 7), cube.NewIntDimension("y", 0, 7)), Options{
		BlockSize: 3, Fanout: 3,
		WALPath:      filepath.Join(dir, "updates.wal"),
		SnapshotPath: filepath.Join(dir, "cube.snap"),
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	for i := 0; i < 5; i++ {
		commitOne(t, s, i)
		if code := get(t, ts, "/query?op=sum", nil); code != http.StatusOK {
			t.Fatalf("query answered %d", code)
		}
	}
	time.Sleep(20 * time.Millisecond) // what is checked is that no timer runs the job
	if n := s.storageRuns(); n != 0 {
		t.Fatalf("a healthy server's storage loop ran its job %d times", n)
	}
	s.transition(event{cause: errors.New("test: log declared poisoned")})
	waitFor(t, "the storage loop to recover after a fault woke it", func() bool { return !s.Health().Degraded })
	if n := s.storageRuns(); n != 1 {
		t.Fatalf("one recovery took %d runs, want 1", n)
	}
}

// syncLog collects log lines from any goroutine.
type syncLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *syncLog) printf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *syncLog) find(sub string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.Contains(s, sub) {
			return s
		}
	}
	return ""
}

// TestLoopPanicIsLoggedAndRunsAgain: a panic in a follower's pump is logged
// with its stack, the follower keeps answering /query, and the pump runs
// again on its next wake and catches up with the leader.
func TestLoopPanicIsLoggedAndRunsAgain(t *testing.T) {
	var logs syncLog
	tr := replTier(t, 3, joinLeaderPanicking, Options{Logf: logs.printf})
	leader, f := tr.leader, tr.follower
	ran(t, f.pump()) // the run that panics, and one after it
	line := logs.find("follow pump panicked")
	if !strings.Contains(line, "injected into the follow pump") || !strings.Contains(line, "goroutine ") {
		t.Fatalf("the panic was not logged with its value and stack: %q", line)
	}
	if got, code := sumOf(t, f, "/query?op=sum"); code != http.StatusOK {
		t.Fatalf("follower /query after the panic: status %d (%+v)", code, got)
	}
	commitOne(t, leader.Server, 3)
	want, _ := sumOf(t, leader, "/query?op=sum")
	ran(t, f.pump()) // sooner than the second a panicked job waits
	if got, code := sumOf(t, f, "/query?op=sum"); code != http.StatusOK || got.Value != want.Value || f.Seq() != leader.Seq() {
		t.Fatalf("the pump did not run again: follower sum %d at seq %d (status %d), leader %d at seq %d", got.Value, f.Seq(), code, want.Value, leader.Seq())
	}
}
