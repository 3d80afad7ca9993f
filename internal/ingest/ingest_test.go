package ingest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedCommit is a CommitFunc whose execution can be held closed, so tests
// can force submissions to pile up in the queue and be flushed as one
// group deterministically.
type gatedCommit struct {
	mu      sync.Mutex
	entered chan struct{} // signaled on entry to commit (nil = no signal)
	gate    chan struct{} // commit blocks until this closes (nil = open)
	groups  [][][]Update
	seq     uint64
	err     error
}

func (g *gatedCommit) commit(_ context.Context, groups [][]Update) (uint64, error) {
	if g.entered != nil {
		select {
		case g.entered <- struct{}{}:
		default:
		}
	}
	if g.gate != nil {
		<-g.gate
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return 0, g.err
	}
	g.seq++
	cp := make([][]Update, len(groups))
	for i, grp := range groups {
		cp[i] = append([]Update(nil), grp...)
	}
	g.groups = append(g.groups, cp)
	return g.seq, nil
}

func (g *gatedCommit) flushed() [][][]Update {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.groups
}

func up(x, y int, d int64) Update { return Update{Coords: []int{x, y}, Delta: d} }

// TestGroupsFormWhileCommitInFlight pins the group-commit mechanic: while
// the first commit is blocked, later submissions accumulate and must all
// be flushed together as the second group, in FIFO order.
func TestGroupsFormWhileCommitInFlight(t *testing.T) {
	gc := &gatedCommit{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	b := New(Options{QueueSize: 16, Commit: gc.commit})
	defer b.Stop()

	ack0, _, err := b.Submit([]Update{up(0, 0, 1)}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the flusher is blocked inside the first commit, so the
	// next three submissions cannot ride its group.
	select {
	case <-gc.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("flusher never picked up the first submission")
	}

	var acks []<-chan Result
	for i := 1; i <= 3; i++ {
		ack, _, err := b.Submit([]Update{up(i, 0, int64(i))}, true)
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	close(gc.gate)

	r0 := <-ack0
	if r0.Err != nil || r0.Seq != 1 {
		t.Fatalf("first submission: seq %d err %v", r0.Seq, r0.Err)
	}
	for i, ack := range acks {
		r := <-ack
		if r.Err != nil || r.Seq != 2 {
			t.Fatalf("queued submission %d: seq %d err %v, want group seq 2", i, r.Seq, r.Err)
		}
		if r.Enqueued.After(r.Flushed) || r.Flushed.After(r.Committed) {
			t.Fatalf("timestamps out of order: %v / %v / %v", r.Enqueued, r.Flushed, r.Committed)
		}
	}
	groups := gc.flushed()
	if len(groups) != 2 {
		t.Fatalf("got %d commits, want 2", len(groups))
	}
	if len(groups[1]) != 3 {
		t.Fatalf("second group carried %d submissions, want 3", len(groups[1]))
	}
	for i, grp := range groups[1] {
		if grp[0].Coords[0] != i+1 {
			t.Fatalf("group order violated: submission %d has x=%d", i, grp[0].Coords[0])
		}
	}
}

// TestQueueFullRejects pins the backpressure contract: with the flusher
// wedged and the queue at capacity, Submit fails fast with ErrQueueFull.
func TestQueueFullRejects(t *testing.T) {
	gc := &gatedCommit{gate: make(chan struct{})}
	b := New(Options{QueueSize: 2, Commit: gc.commit})
	defer func() { close(gc.gate); b.Stop() }()

	// One submission occupies the flusher; two fill the queue. They may
	// race (the flusher might not have picked up the first yet), so keep
	// submitting until the queue rejects — it must within 3+queue slots.
	overflow := false
	for i := 0; i < 16; i++ {
		_, _, err := b.Submit([]Update{up(i, 0, 1)}, false)
		if errors.Is(err, ErrQueueFull) {
			overflow = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !overflow {
		t.Fatal("queue never rejected with ErrQueueFull")
	}
}

// TestStopDrainsAndRejects: Stop must commit everything already queued
// (sync writers get their acks) and subsequent Submits must fail with
// ErrClosed.
func TestStopDrainsAndRejects(t *testing.T) {
	gc := &gatedCommit{}
	b := New(Options{QueueSize: 16, Commit: gc.commit})
	var acks []<-chan Result
	for i := 0; i < 5; i++ {
		ack, _, err := b.Submit([]Update{up(i, 0, 1)}, true)
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	b.Stop()
	for i, ack := range acks {
		select {
		case r := <-ack:
			if r.Err != nil {
				t.Fatalf("submission %d failed during drain: %v", i, r.Err)
			}
		default:
			t.Fatalf("submission %d not acked after Stop", i)
		}
	}
	if _, _, err := b.Submit([]Update{up(0, 0, 1)}, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Stop: %v, want ErrClosed", err)
	}
	b.Stop() // idempotent
}

// TestCommitErrorFansOutToEveryWriter: a failed group commit must deliver
// the same error to every sync writer in the group.
func TestCommitErrorFansOutToEveryWriter(t *testing.T) {
	boom := errors.New("disk on fire")
	gc := &gatedCommit{gate: make(chan struct{}), err: boom}
	b := New(Options{QueueSize: 16, Commit: gc.commit})
	defer b.Stop()

	var acks []<-chan Result
	for i := 0; i < 3; i++ {
		ack, _, err := b.Submit([]Update{up(i, 0, 1)}, true)
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	close(gc.gate)
	for i, ack := range acks {
		if r := <-ack; !errors.Is(r.Err, boom) {
			t.Fatalf("writer %d: err %v, want the commit failure", i, r.Err)
		}
	}
}

// TestMaxBatchSplitsGroups: a gathered group never exceeds MaxBatch point
// updates even when far more are queued.
func TestMaxBatchSplitsGroups(t *testing.T) {
	gc := &gatedCommit{gate: make(chan struct{})}
	b := New(Options{QueueSize: 64, MaxBatch: 4, Commit: gc.commit})
	defer b.Stop()
	for i := 0; i < 12; i++ {
		if _, _, err := b.Submit([]Update{up(i, 0, 1)}, false); err != nil {
			t.Fatal(err)
		}
	}
	close(gc.gate)
	b.Stop()
	for gi, groups := range gc.flushed() {
		total := 0
		for _, grp := range groups {
			total += len(grp)
		}
		// The first group may hold only the submission the flusher grabbed
		// before the rest queued; no group may exceed the cap.
		if total > 4 {
			t.Fatalf("group %d carried %d updates, cap is 4", gi, total)
		}
	}
}

// TestConcurrentSubmittersAllCommit hammers Submit from many goroutines
// (the -race soak shape) and checks nothing is lost or double-committed.
func TestConcurrentSubmittersAllCommit(t *testing.T) {
	var total atomic.Int64
	commit := func(_ context.Context, groups [][]Update) (uint64, error) {
		n := int64(0)
		for _, g := range groups {
			for _, u := range g {
				n += u.Delta
			}
		}
		return uint64(total.Add(n)), nil
	}
	b := New(Options{QueueSize: 128, Commit: commit})
	const writers, per = 8, 50
	var wg sync.WaitGroup
	var submitted atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				wantSync := i%2 == 0
				ack, _, err := b.Submit([]Update{up(w, i%7, 1)}, wantSync)
				if errors.Is(err, ErrQueueFull) {
					i-- // retry; backpressure is expected under this load
					continue
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				submitted.Add(1)
				if wantSync {
					if r := <-ack; r.Err != nil {
						t.Errorf("writer %d: commit: %v", w, r.Err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	b.Stop()
	if got, want := total.Load(), submitted.Load(); got != want {
		t.Fatalf("committed %d updates, submitted %d", got, want)
	}
}

// TestCommitPanicFailsItsGroup: a commit that panics fails its group's
// writers with an error, its value and stack are logged, and the flusher
// commits the next group.
func TestCommitPanicFailsItsGroup(t *testing.T) {
	gc := &gatedCommit{}
	var logged atomic.Value
	b := New(Options{
		Commit: func(ctx context.Context, groups [][]Update) (uint64, error) {
			if groups[0][0].Delta < 0 {
				panic("injected into the commit")
			}
			return gc.commit(ctx, groups)
		},
		Logf: func(format string, args ...any) { logged.Store(fmt.Sprintf(format, args...)) },
	})
	defer b.Stop()
	ack, _, err := b.Submit([]Update{up(0, 0, -1)}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ack; res.Err == nil || !strings.Contains(res.Err.Error(), "commit panicked: injected into the commit") {
		t.Fatalf("the panicking group's writer got %+v, want a commit-panicked error", res)
	}
	if line, _ := logged.Load().(string); !strings.Contains(line, "injected into the commit") || !strings.Contains(line, "goroutine ") {
		t.Fatalf("the panic was not logged with its value and stack: %q", line)
	}
	ack, _, err = b.Submit([]Update{up(1, 1, 2)}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ack; res.Err != nil || res.Seq != 1 {
		t.Fatalf("the next group after the panic: %+v, want seq 1", res)
	}
}
