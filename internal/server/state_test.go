package server

import (
	"bytes"
	"encoding/json"
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

	"rangecube/internal/cube"
	"rangecube/internal/ingest"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/shard"
	"rangecube/internal/wal"
)

// TestPushedSlabIsItsCopy holds the leader's /state body, encoded straight
// from the cube's runs, to the reference encoding of the slab's copy,
// WriteSnapshot(SlabCopy(...)), byte for byte: for every shard of a split
// along x (each slab one contiguous span of the cube) and along y (each slab
// a run per row). Each shard then holds its slab's cells.
func TestPushedSlabIsItsCopy(t *testing.T) {
	for _, shape := range [][2]int{{12, 7}, {7, 12}} {
		t.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(t *testing.T) {
			c := cube.New(cube.NewIntDimension("x", 0, shape[0]-1), cube.NewIntDimension("y", 0, shape[1]-1))
			for i := range c.Data().Data() {
				c.Data().Data()[i] = int64(i*7919%211) - 100
			}
			var mu sync.Mutex
			pushed := map[string][]byte{}
			tr := newTier(t, tierSpec{cube: c, shards: 3, hook: func(host string, r *http.Request) fault {
				if r.URL.Path == "/state" {
					b, _ := io.ReadAll(r.Body)
					r.Body = io.NopCloser(bytes.NewReader(b))
					mu.Lock()
					pushed[host] = b
					mu.Unlock()
				}
				return pass
			}})
			m := tr.leader.router.Map()
			if wantDim := ndarray.WidestDim(shape[:]); m.Dim() != wantDim || m.Shards() != 3 {
				t.Fatalf("%d shards split along %d, want 3 along %d", m.Shards(), m.Dim(), wantDim)
			}
			for i := range m.Shards() {
				slab := shard.SlabCopy(tr.oracle, m, i)
				var want bytes.Buffer
				if err := persist.WriteSnapshot(&want, 0, slab); err != nil {
					t.Fatal(err)
				}
				if got := pushed[fmt.Sprintf("shard%d", i)]; !bytes.Equal(got, want.Bytes()) {
					t.Errorf("shard %d: pushed %d bytes that differ from its copy's %d", i, len(got), want.Len())
				}
				if got := tr.shards[i].cube.Data(); !slices.Equal(got.Shape(), slab.Shape()) || !slices.Equal(got.Data(), slab.Data()) {
					t.Errorf("shard %d holds cells of shape %v that differ from its slab's", i, got.Shape())
				}
			}
		})
	}
}

// TestParkedPushHoldsUpNoOtherShard parks shard 0's boot-time /state push at
// the wire's gate until shard 1 has been pushed and marked up: the leader
// pushes every shard at once, so one shard that is slow to take its state
// delays no other. A leader that pushes one shard after the other never
// reaches shard 1 while shard 0 is parked, and the gate opens only after 5 s.
func TestParkedPushHoldsUpNoOtherShard(t *testing.T) {
	g := newGate(t)
	synced := make(chan struct{})
	var once sync.Once
	logf := func(format string, args ...any) {
		if strings.HasPrefix(fmt.Sprintf(format, args...), "server: shard 1 (http://shard1) synced") {
			once.Do(func() { close(synced) })
		}
	}
	var starved atomic.Bool
	go func() {
		select {
		case <-synced:
		case <-time.After(5 * time.Second):
			starved.Store(true)
		}
		g.open()
	}()
	tr := newTier(t, tierSpec{shards: 2, opts: Options{Logf: logf}, hook: func(host string, r *http.Request) fault {
		if host == "shard0" && r.URL.Path == "/state" {
			return g.hold(r)
		}
		return pass
	}})
	if starved.Load() {
		t.Fatal("shard 1 was not pushed and marked up while shard 0's /state push was parked")
	}
	if h := tr.leader.Health(); !h.Ready || len(h.ShardsDown) != 0 {
		t.Fatalf("after the parked push landed: %+v, want every shard up", h)
	}
	want := naive.SumInt64(tr.oracle, tr.region(0, 9, 0, 7), nil)
	if out, code := sumOf(t, tr.leader, "/query?op=sum&x=0..9&y=0..7"); code != http.StatusOK || out.Partial || out.Value != want {
		t.Fatalf("full sum %+v (status %d), want the exact %d", out, code, want)
	}
}

// TestPanickingPushFailsItsShardAlone panics shard 0's first /state push on
// the pushing goroutine. The panic is contained: the leader boots with shard
// 1 up and shard 0 down, and the resync loop, woken by it, brings shard 0 up.
func TestPanickingPushFailsItsShardAlone(t *testing.T) {
	var panicked atomic.Bool
	tr := newTier(t, tierSpec{shards: 2, hook: func(host string, r *http.Request) fault {
		if host == "shard0" && r.URL.Path == "/state" && panicked.CompareAndSwap(false, true) {
			panic("push")
		}
		return pass
	}})
	if !panicked.Load() {
		t.Fatal("shard 0's push never ran")
	}
	waitFor(t, "the resync loop to bring shard 0 up", func() bool { return tr.leader.Health().Ready })
	want := naive.SumInt64(tr.oracle, tr.region(0, 9, 0, 7), nil)
	if out, code := sumOf(t, tr.leader, "/query?op=sum&x=0..9&y=0..7"); code != http.StatusOK || out.Partial || out.Value != want {
		t.Fatalf("full sum %+v (status %d), want the exact %d", out, code, want)
	}
}

// committer commits +1 to the leader's cell (x, y) every period until stop
// returns, which reports how many commits were acked and the first error.
func committer(tr *tier, x, y int, period time.Duration) (stop func() (int64, error)) {
	quit, done := make(chan struct{}), make(chan error, 1)
	var n int64
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- nil
				return
			case <-tick.C:
			}
			ack, err := tr.leader.SubmitUpdates([]ingest.Update{{Coords: []int{x, y}, Delta: 1}}, true)
			if err == nil {
				err = (<-ack).Err
			}
			if err != nil {
				done <- err
				return
			}
			n++
		}
	}()
	return func() (int64, error) {
		close(quit)
		err := <-done
		tr.oracle.Set(tr.oracle.At(x, y)+n, x, y)
		return n, err
	}
}

// downShard stops shard i and commits into its slab (x 0..4 or 5..9); the
// read after the commit waits for its failed delivery, which marks shard i
// down.
func downShard(t *testing.T, tr *tier, i int) {
	t.Helper()
	tr.stop(tr.shards[i])
	tr.commit(5*i, 0, 1)
	if out, code := sumOf(t, tr.leader, "/query?op=sum&x=0..9&y=0..7"); code != http.StatusOK || !out.Partial {
		t.Fatalf("sum after shard %d's delivery failed: %+v status %d, want partial", i, out, code)
	}
}

// wantExact requires the leader's sum over x0..x1 to be exact and equal to
// the oracle's.
func wantExact(t *testing.T, tr *tier, x0, x1 int) {
	t.Helper()
	want := naive.SumInt64(tr.oracle, tr.region(x0, x1, 0, 7), nil)
	if out, code := sumOf(t, tr.leader, fmt.Sprintf("/query?op=sum&x=%d..%d&y=0..7", x0, x1)); code != http.StatusOK || out.Partial || out.Value != want {
		t.Fatalf("sum over x %d..%d: %+v (status %d), want the exact %d", x0, x1, out, code, want)
	}
}

// TestRestartedShardSyncsUnderSteadyCommits is the schedule of ROADMAP item
// 36: shard 1 is marked down, then restarted while a writer commits into
// its slab every 5 ms and every /state push to it takes 10 ms, so each push
// is raced by a commit. A resync that marks the shard up only when no commit
// raced its push never does; one that holds the racing records behind its
// push has the tier ready within 1 s, and the whole cube then sums exactly.
func TestRestartedShardSyncsUnderSteadyCommits(t *testing.T) {
	tr := newTier(t, tierSpec{shards: 2, hook: func(host string, r *http.Request) fault {
		if host == "shard1" && r.URL.Path == "/state" {
			time.Sleep(10 * time.Millisecond)
		}
		return pass
	}})
	downShard(t, tr, 1)
	stop := committer(tr, 7, 3, 5*time.Millisecond)
	tr.shards[1] = tr.bootShard("shard1")
	start := time.Now()
	for !tr.leader.Health().Ready && time.Since(start) < time.Second {
		time.Sleep(time.Millisecond)
	}
	ready, took := tr.leader.Health().Ready, time.Since(start)
	n, err := stop()
	if err != nil {
		t.Fatal(err)
	}
	if !ready {
		t.Fatalf("shard 1 still down %v after its restart, under %d commits into its slab", took, n)
	}
	wantExact(t, tr, 0, 9)
}

// TestResyncAnswersPartialUntilHeldRecordsLand parks shard 1's resync push
// until a commit into its slab has been held behind it, then parks the
// /shard/apply that carries the held record. Until that is released, shard
// 1's slab must answer partial: marked up once the push landed, the shard
// would answer its slab exactly, without the commit.
func TestResyncAnswersPartialUntilHeldRecordsLand(t *testing.T) {
	var pushing, flushing atomic.Bool
	push, flush := newGate(t), newGate(t)
	tr := newTier(t, tierSpec{shards: 2, hook: func(host string, r *http.Request) fault {
		switch {
		case host != "shard1":
		case r.URL.Path == "/state" && pushing.Load():
			return push.hold(r)
		case r.URL.Path == "/shard/apply" && flushing.Load():
			return flush.hold(r)
		}
		return pass
	}})
	downShard(t, tr, 1)
	pushing.Store(true)
	tr.shards[1] = tr.bootShard("shard1")
	push.awaitArrival(t)
	tr.commit(6, 2, 500)
	wantExact(t, tr, 0, 4) // the read awaits the commit's delivery: held
	flushing.Store(true)
	push.open()
	flush.awaitArrival(t)
	for range 3 {
		if out, code := sumOf(t, tr.leader, "/query?op=sum&x=5..9&y=0..7"); code != http.StatusOK || !out.Partial {
			t.Fatalf("shard 1's slab with its held record parked: %+v (status %d), want partial", out, code)
		}
	}
	flush.open()
	waitFor(t, "shard 1 to come up", func() bool { return tr.leader.Health().Ready })
	wantExact(t, tr, 0, 9)
}

// TestParkedPushHoldsUpNoDelivery parks shard 0's resync push while commits
// land in both slabs. The push holds no send order, so shard 0's records are
// held behind it, every delivery finishes, and shard 1's slab answers each
// commit exactly. A push holding the send order would hold every delivery,
// and every read waiting on one, until the gate opens after 5 s.
func TestParkedPushHoldsUpNoDelivery(t *testing.T) {
	var pushing, starved atomic.Bool
	g := newGate(t)
	tr := newTier(t, tierSpec{shards: 2, hook: func(host string, r *http.Request) fault {
		if host == "shard0" && r.URL.Path == "/state" && pushing.Load() {
			return g.hold(r)
		}
		return pass
	}})
	downShard(t, tr, 0)
	pushing.Store(true)
	tr.shards[0] = tr.bootShard("shard0")
	g.awaitArrival(t)
	watchdog := time.AfterFunc(5*time.Second, func() { starved.Store(true); g.open() })
	for y := range 4 {
		tr.commit(2, y, 3)
		tr.commit(7, y, 5)
		wantExact(t, tr, 5, 9)
	}
	watchdog.Stop()
	if starved.Load() {
		t.Fatal("shard 1's deliveries waited on shard 0's parked push")
	}
	g.open()
	waitFor(t, "shard 0 to come up", func() bool { return tr.leader.Health().Ready })
	wantExact(t, tr, 0, 9)
}

// TestResyncSurvivesFailedInFlightDelivery starts shard 1's resync while a
// delivery to it is in flight: the delivery parks, the engine is marked down
// and the resync opens its hold, then a commit into the slab is held behind
// the parked push and the in-flight delivery fails, marking the engine down
// again. That delivery carried only records the push covers, so the hold
// must survive it: the shard comes up with the held commit, and its slab
// sums exactly.
func TestResyncSurvivesFailedInFlightDelivery(t *testing.T) {
	var pushing, failing atomic.Bool
	push, inFlight := newGate(t), newGate(t)
	tr := newTier(t, tierSpec{shards: 2, hook: func(host string, r *http.Request) fault {
		switch {
		case host != "shard1":
		case r.URL.Path == "/state" && pushing.Load():
			return push.hold(r)
		case r.URL.Path == "/shard/apply" && failing.Load():
			inFlight.hold(r)
			return refuse
		}
		return pass
	}})
	failing.Store(true)
	tr.commit(8, 1, 40)
	inFlight.awaitArrival(t)
	pushing.Store(true)
	tr.leader.remoteEngines[1].MarkDown(errors.New("marked down by the test"))
	tr.leader.resync.wake()
	push.awaitArrival(t)
	tr.commit(6, 2, 500)
	inFlight.open()
	// A read awaits the delivery of the last commit, after the failed one.
	if out, code := sumOf(t, tr.leader, "/query?op=sum&x=0..4&y=0..7"); code != http.StatusOK || out.Partial {
		t.Fatalf("shard 0's slab: %+v (status %d), want exact", out, code)
	}
	failing.Store(false)
	push.open()
	waitFor(t, "shard 1 to come up", func() bool { return tr.leader.Health().Ready })
	wantExact(t, tr, 0, 9)
}

// FuzzStatePush feeds raw bodies to POST /state on a shard that has had no
// push yet and on one holding a 4×3 slab at seq 5. Whatever the bytes, the
// handler answers without a panic; a body it refuses leaves the seq and every
// cell as they were, and an accepted one installs exactly what
// persist.ReadSnapshotSized decodes from it, which the shard then sums.
func FuzzStatePush(f *testing.F) {
	newShard := func(t testing.TB) *Server {
		s, err := NewWithOptions(cube.New(cube.NewIntDimension("d0", 0, 0)), Options{
			BlockSize: 2, Fanout: 2, AcceptState: true, Logf: func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pushed := newShard(f)
	f.Cleanup(func() { pushed.Close() })
	slab := ndarray.New[int64](4, 3)
	for k := range slab.Data() {
		slab.Data()[k] = int64(k*7%11 - 3)
	}
	snap := func(seq uint64, a *ndarray.Array[int64]) []byte {
		var b bytes.Buffer
		if err := persist.WriteSnapshot(&b, seq, a); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	valid := snap(6, slab)
	f.Add(valid)
	f.Add(snap(2, slab))                                                    // an older seq
	f.Add(snap(9, ndarray.New[int64](2, 5)))                                // another shape
	f.Add(snap(1, ndarray.New[int64](3)))                                   // another rank
	f.Add(valid[:len(valid)-3])                                             // truncated
	f.Add(append(valid[:len(valid)-1:len(valid)-1], valid[len(valid)-1]^1)) // bad trailer
	f.Add(sealedBatch(f, 6, wal.Update{Coords: []int{1, 1}, Delta: 2}))     // a record, not a snapshot
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		fresh := newShard(t)
		defer fresh.Close()
		if err := pushed.resetState(5, slab.Clone()); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			s      *Server
			seq    uint64
			before *ndarray.Array[int64]
		}{{fresh, 0, ndarray.New[int64](1)}, {pushed, 5, slab}} {
			h := c.s.Handler()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/state", bytes.NewReader(body)))
			wantSeq, want := c.seq, c.before
			switch rec.Code {
			case http.StatusOK:
				var err error
				if wantSeq, want, err = persist.ReadSnapshotSized(bytes.NewReader(body), int64(len(body))); err != nil {
					t.Fatalf("accepted a body the decoder refuses: %v", err)
				}
			case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("answered %d: %s", rec.Code, rec.Body)
			}
			c.s.mu.RLock()
			seq, got := c.s.seq.Load(), c.s.cube.Data()
			same := slices.Equal(got.Shape(), want.Shape()) && slices.Equal(got.Data(), want.Data())
			c.s.mu.RUnlock()
			if seq != wantSeq || !same {
				t.Fatalf("status %d left seq %d and cells %v of shape %v, want %d and %v of shape %v", rec.Code, seq, got.Data(), got.Shape(), wantSeq, want.Data(), want.Shape())
			}
			if c.s.awaitingState.Load() != (c.s == fresh && rec.Code != http.StatusOK) {
				t.Fatalf("status %d: awaiting state %v", rec.Code, c.s.awaitingState.Load())
			}
			if c.s.awaitingState.Load() {
				continue // it answers no query yet
			}
			sum := httptest.NewRecorder()
			h.ServeHTTP(sum, httptest.NewRequest(http.MethodGet, "/query?op=sum", nil))
			var out queryResponse
			if err := json.NewDecoder(sum.Body).Decode(&out); err != nil || sum.Code != http.StatusOK || out.Value != naive.SumInt64(want, want.Bounds(), nil) {
				t.Fatalf("whole-cube sum %+v, status %d, %v; want %d", out, sum.Code, err, naive.SumInt64(want, want.Bounds(), nil))
			}
		}
	})
}
