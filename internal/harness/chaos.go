package harness

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rangecube/internal/client"
	"rangecube/internal/faultio"
	"rangecube/internal/server"
	"rangecube/internal/wal"
)

// ChaosResult is the record of the disk-chaos soak (cubebench -exp chaos,
// TestChaosSoak). The soak drives live read/write HTTP traffic through the
// retrying client while a chaos goroutine injects
// ENOSPC/EIO/fsync-failure/slow-I/O faults into the WAL's backing file,
// then verifies three invariants: no acknowledged update is
// ever lost (including across a restart), no query returns an answer
// inconsistent with the acked oracle, and the server transitions degraded →
// recovered without a restart. Failures is empty on a passing run.
type ChaosResult struct {
	Shape      []int
	Writers    int
	Readers    int
	DurationNS int64

	AckedUpdates int64
	AckedSum     int64
	ShedWrites   int64
	Queries      int64

	FaultsInjected   int64
	WALFaults        uint64
	WALRepairs       uint64
	Recoveries       uint64
	DegradedObserved bool
	FinalSeq         uint64
	RestartSeq       uint64

	Failures []string
}

// chaosRun carries the soak's shared state.
type chaosRun struct {
	srv *server.Server
	ts  *httptest.Server
	inj *faultio.Injector
	c   *client.Client

	n      int
	oracle []atomic.Int64 // per-cell acked deltas, the ground truth
	// ackedSum/attemptedSum bound what a concurrent whole-cube sum may
	// return: acked-before-the-query is a floor (acks happen after apply),
	// attempted-ever is a ceiling (only submitted deltas can apply, and all
	// deltas are positive).
	ackedSum     atomic.Int64
	attemptedSum atomic.Int64
	acked        atomic.Int64
	shed         atomic.Int64
	queries      atomic.Int64

	mu       sync.Mutex
	failures []string
}

func (r *chaosRun) failf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 32 { // enough to diagnose, bounded against a cascade
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// Chaos runs the disk-chaos soak: writers and readers hammer an n×n
// WAL-backed server over HTTP through the retrying client for roughly the
// given duration while faults fire, then the run quiesces, verifies the
// acked oracle cell by cell, forces a degraded→recovered cycle if the
// random phase happened not to produce one, and finally restarts the server
// from its on-disk artifacts and verifies the oracle again.
func Chaos(n, writers, readers int, duration time.Duration) (Table, ChaosResult) {
	dir, err := os.MkdirTemp("", "cubebench-chaos-*")
	if err != nil {
		panic(fmt.Sprintf("harness: temp dir: %v", err))
	}
	defer os.RemoveAll(dir)

	inj := faultio.NewInjector()
	opts := server.Options{
		BlockSize:    1,
		Fanout:       3,
		WALPath:      filepath.Join(dir, "updates.wal"),
		SnapshotPath: filepath.Join(dir, "cube.snap"),
		CompactEvery: 8, // cross compaction boundaries during the soak
		IngestQueue:  4 * writers,
		WALOpenFile:  func(p string) (wal.File, error) { return inj.Open(p) },
	}
	srv := newBenchServer(n, make([]int64, n*n), opts)
	ts := httptest.NewServer(srv.Handler())

	r := &chaosRun{
		srv: srv, ts: ts, inj: inj, n: n,
		oracle: make([]atomic.Int64, n*n),
		c: client.New(client.Options{
			MaxAttempts: 6,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
			HTTPClient:  ts.Client(),
		}),
	}

	start := time.Now()
	stop := make(chan struct{})
	var wg, readerWG sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for time.Since(start) < duration {
				r.postUpdate(rng.Intn(n), rng.Intn(n), int64(rng.Intn(9)+1))
			}
		}(w)
	}
	for q := 0; q < readers; q++ {
		readerWG.Add(1)
		go func(q int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(2000 + q)))
			lastWhole := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				lastWhole = r.readOnce(rng, lastWhole)
			}
		}(q)
	}
	wg.Add(1)
	go func() { // the chaos agent
		defer wg.Done()
		rng := rand.New(rand.NewSource(3000))
		for time.Since(start) < duration {
			time.Sleep(time.Duration(rng.Intn(30)+5) * time.Millisecond)
			switch rng.Intn(5) {
			case 0:
				inj.FailSyncs(1, faultio.ErrIO) // healed by the inline retry
			case 1:
				inj.FailWrites(1, faultio.ErrNoSpace) // torn tail + retry
			case 2:
				inj.FailSyncs(6, faultio.ErrNoSpace) // poisons; degraded mode
			case 3:
				inj.SetDelay(300 * time.Microsecond) // slow disk
			case 4:
				inj.Clear()
			}
		}
		inj.Clear()
	}()
	wg.Wait()

	// Quiesce: writers are done (sync acks mean nothing is in flight), the
	// disk is healed. If the random phase never poisoned the log, force one
	// full degraded→recovered cycle now — the soak must never pass
	// vacuously. Then wait out any in-progress recovery.
	if r.srv.Health().Recoveries == 0 {
		inj.FailSyncs(6, faultio.ErrNoSpace)
		r.postUpdate(0, 0, 1)
		inj.Clear()
	}
	h := r.srv.Health()
	degradedObserved := h.Recoveries > 0 || h.Degraded
	recoverDeadline := time.Now().Add(10 * time.Second)
	for r.srv.Health().Degraded {
		if time.Now().After(recoverDeadline) {
			r.failf("server never recovered from degraded mode")
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Verify 1: the quiesced state equals the acked oracle exactly — sync
	// acks happen only after apply, and failed commits never apply, so
	// acked == applied cell for cell.
	r.verifyCells("live", func(x, y int) int64 { return r.queryCell(r.ts.URL, x, y) })
	finalSeq := r.srv.Seq()
	health := r.srv.Health()

	// Verify 2: restart. Close flushes and checkpoints; a fresh server over
	// a zero cube must rebuild the acked state from snapshot + WAL alone.
	close(stop)
	readerWG.Wait()
	ts.Close()
	if err := srv.Close(); err != nil {
		r.failf("close: %v", err)
	}
	srv2 := newBenchServer(n, make([]int64, n*n), server.Options{
		BlockSize: 1, Fanout: 3,
		WALPath:      filepath.Join(dir, "updates.wal"),
		SnapshotPath: filepath.Join(dir, "cube.snap"),
	})
	ts2 := httptest.NewServer(srv2.Handler())
	r.verifyCells("restart", func(x, y int) int64 { return r.queryCell(ts2.URL, x, y) })
	restartSeq := srv2.Seq()
	if restartSeq != finalSeq {
		r.failf("restart seq %d != final seq %d", restartSeq, finalSeq)
	}
	ts2.Close()
	srv2.Close()

	res := ChaosResult{
		Shape: []int{n, n}, Writers: writers, Readers: readers,
		DurationNS:   time.Since(start).Nanoseconds(),
		AckedUpdates: r.acked.Load(), AckedSum: r.ackedSum.Load(),
		ShedWrites: r.shed.Load(), Queries: r.queries.Load(),
		FaultsInjected: inj.Injected(),
		WALFaults:      health.WALFaults, WALRepairs: health.WALRepairs,
		Recoveries: health.Recoveries, DegradedObserved: degradedObserved,
		FinalSeq: finalSeq, RestartSeq: restartSeq,
		Failures: r.failures,
	}

	verdict := "PASS"
	if len(res.Failures) > 0 {
		verdict = fmt.Sprintf("FAIL (%d)", len(res.Failures))
	}
	tab := Table{
		Title: "Disk-chaos soak: injected WAL faults under live read/write traffic",
		Note: "writers/readers drive HTTP traffic through the retrying client while ENOSPC/EIO/fsync/slow-I/O " +
			"faults fire; invariants: no acked update lost (live and across restart), every query consistent " +
			"with the acked oracle, degraded mode entered and recovered without a restart.",
		Headers: []string{"cube", "writers", "readers", "acked", "shed", "queries", "faults", "repairs", "recoveries", "verdict"},
	}
	tab.Add(fmt.Sprintf("%dx%d", n, n), writers, readers,
		res.AckedUpdates, res.ShedWrites, res.Queries,
		res.WALFaults, res.WALRepairs, res.Recoveries, verdict)
	return tab, res
}

// postUpdate submits one positive single-cell delta with sync durability
// through the retrying client, crediting the oracle only on a 200 ack. A
// shed or failed write is retried here (outer loop) on top of the client's
// own backoff; every non-2xx leaves the oracle untouched, which is exactly
// the at-most-once accounting the invariants need.
func (r *chaosRun) postUpdate(x, y int, delta int64) {
	body := map[string]any{"updates": []map[string]any{{"coords": []int{x, y}, "delta": delta}}}
	r.attemptedSum.Add(delta)
	for attempt := 0; ; attempt++ {
		var ack struct {
			Seq uint64 `json:"seq"`
		}
		status, err := r.c.DoJSON(context.Background(), http.MethodPost,
			r.ts.URL+"/update?durability=sync", body, &ack)
		if err == nil && status == http.StatusOK {
			r.oracle[x*r.n+y].Add(delta)
			r.ackedSum.Add(delta)
			r.acked.Add(1)
			return
		}
		if status == http.StatusInternalServerError {
			r.failf("update answered 500: %v", err)
			return
		}
		r.shed.Add(1)
		if attempt >= 40 {
			r.failf("update never acked after %d rounds: status=%d err=%v", attempt+1, status, err)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readOnce issues one query and checks it against an oracle bound that is
// valid even while writers race: a whole-cube sum is bounded below by the
// acked total before the query and above by the attempted total after it
// (all deltas are positive, so it is also monotone between reads); a count
// query has an exact geometric answer under any interleaving.
func (r *chaosRun) readOnce(rng *rand.Rand, lastWhole int64) int64 {
	r.queries.Add(1)
	if rng.Intn(3) == 0 {
		// count over a random rectangle: exact under concurrency.
		x0, x1 := twoOrdered(rng, r.n)
		y0, y1 := twoOrdered(rng, r.n)
		var resp struct {
			Value int64 `json:"value"`
		}
		url := fmt.Sprintf("%s/query?op=count&d0=%d..%d&d1=%d..%d", r.ts.URL, x0, x1, y0, y1)
		status, err := r.c.DoJSON(context.Background(), http.MethodGet, url, nil, &resp)
		if err != nil || status != http.StatusOK {
			r.failf("count query failed: status=%d err=%v", status, err)
			return lastWhole
		}
		if want := int64((x1 - x0 + 1) * (y1 - y0 + 1)); resp.Value != want {
			r.failf("count %s = %d, want %d", url, resp.Value, want)
		}
		return lastWhole
	}
	floor := r.ackedSum.Load()
	var resp struct {
		Value int64 `json:"value"`
	}
	status, err := r.c.DoJSON(context.Background(), http.MethodGet, r.ts.URL+"/query?op=sum", nil, &resp)
	ceiling := r.attemptedSum.Load()
	if err != nil || status != http.StatusOK {
		r.failf("sum query failed: status=%d err=%v", status, err)
		return lastWhole
	}
	if resp.Value < floor || resp.Value > ceiling {
		r.failf("whole-cube sum %d outside acked..attempted bounds [%d, %d]", resp.Value, floor, ceiling)
	}
	if resp.Value < lastWhole {
		r.failf("whole-cube sum went backwards: %d after %d (deltas are positive)", resp.Value, lastWhole)
	}
	return resp.Value
}

// queryCell reads one cell's value over HTTP via an equality selector.
func (r *chaosRun) queryCell(base string, x, y int) int64 {
	var resp struct {
		Value int64 `json:"value"`
	}
	url := fmt.Sprintf("%s/query?op=sum&d0=%d&d1=%d", base, x, y)
	status, err := r.c.DoJSON(context.Background(), http.MethodGet, url, nil, &resp)
	if err != nil || status != http.StatusOK {
		r.failf("cell query (%d,%d) failed: status=%d err=%v", x, y, status, err)
		return -1 << 62
	}
	return resp.Value
}

// verifyCells compares every cell against the acked oracle.
func (r *chaosRun) verifyCells(phase string, read func(x, y int) int64) {
	for x := 0; x < r.n; x++ {
		for y := 0; y < r.n; y++ {
			want := r.oracle[x*r.n+y].Load()
			if got := read(x, y); got != want {
				r.failf("%s: cell (%d,%d) = %d, oracle says %d", phase, x, y, got, want)
			}
		}
	}
}

func twoOrdered(rng *rand.Rand, n int) (int, int) {
	a, b := rng.Intn(n), rng.Intn(n)
	if a > b {
		a, b = b, a
	}
	return a, b
}
