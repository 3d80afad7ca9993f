package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/ingest"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/wal"
)

// replTier boots a durable leader, commits n update batches with distinct,
// reconstructible deltas, and then, when follow is set, joins a follower.
func replTier(t *testing.T, n int, follow func(context.Context, string, Options, *http.Client) (*Server, error), followOpts Options) *tier {
	t.Helper()
	tr := newTier(t, tierSpec{durable: true})
	for i := 0; i < n; i++ {
		commitOne(t, tr.leader.Server, i)
	}
	if follow != nil {
		tr.join(follow, followOpts)
	}
	return tr
}

// commitOne applies batch i of the reconstructible sequence: cell
// (i%8, (i*3)%8) += i+1.
func commitOne(t *testing.T, s *Server, i int) {
	t.Helper()
	ack, err := s.SubmitUpdates([]ingest.Update{
		{Coords: []int{i % 8, (i * 3) % 8}, Delta: int64(i + 1)},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ack; res.Err != nil {
		t.Fatal(res.Err)
	}
}

// checkBatches asserts that got is exactly batches from+1..n of the
// reconstructible sequence.
func checkBatches(t *testing.T, got []wal.Batch, from, n int) {
	t.Helper()
	if len(got) != n-from {
		t.Fatalf("got %d batches resuming after %d, want %d", len(got), from, n-from)
	}
	for j, b := range got {
		i := from + j // zero-based batch index; seqs are one-based
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d has seq %d, want %d", j, b.Seq, i+1)
		}
		if len(b.Updates) != 1 || b.Updates[0].Delta != int64(i+1) ||
			b.Updates[0].Coords[0] != i%8 || b.Updates[0].Coords[1] != (i*3)%8 {
			t.Fatalf("batch %d decoded as %+v", j, b)
		}
	}
}

// restartLeader boots a second leader, at host restarted, from copies of the
// leader's snapshot and log as a crash leaves them: the leader is not
// closed, so nothing is compacted first.
func (tr *tier) restartLeader() *node {
	tr.t.Helper()
	dir := tr.t.TempDir()
	opts := tr.leader.opts
	opts.WALPath = filepath.Join(dir, "updates.wal")
	opts.SnapshotPath = filepath.Join(dir, "cube.snap")
	for from, to := range map[string]string{tr.leader.opts.WALPath: opts.WALPath, tr.leader.opts.SnapshotPath: opts.SnapshotPath} {
		data, err := os.ReadFile(from)
		if err != nil {
			tr.t.Fatal(err)
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			tr.t.Fatal(err)
		}
	}
	return tr.boot("restarted", tierCube(), opts)
}

// TestWALFetchResumeSweep resumes the replication stream after every seq,
// on a leader whose log was compacted at seq 3 and then took seqs 4–7, and on
// the same leader restarted from its files: the restarted one rebuilds its
// index of record offsets at boot. After k, for k = 3…7, must yield exactly
// batches k+1…7 (nothing at 7); an after the log does not reach back to, or
// one past the leader's seq, answers 410; an unparseable one, 400.
func TestWALFetchResumeSweep(t *testing.T) {
	const base, K = 3, 7
	tr := replTier(t, base, nil, Options{})
	if err := tr.leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := base; i < K; i++ {
		commitOne(t, tr.leader.Server, i)
	}
	for name, ts := range map[string]*node{"live": tr.leader, "restarted": tr.restartLeader()} {
		for after := 0; after <= K+1; after++ {
			resp := fetchWAL(t, ts, fmt.Sprintf("?after=%d", after))
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if after < base || after > K {
				if resp.StatusCode != http.StatusGone {
					t.Fatalf("%s, after=%d: status %d, want 410", name, after, resp.StatusCode)
				}
				continue
			}
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s, after=%d: status %d err %v", name, after, resp.StatusCode, err)
			}
			if got := resp.Header.Get(hdrSeq); got != strconv.Itoa(K) {
				t.Fatalf("%s, after=%d: X-Cube-Seq %q, want %d", name, after, got, K)
			}
			got, n, serr := wal.ScanStream(bytes.NewReader(body))
			if serr != nil || n != int64(len(body)) {
				t.Fatalf("%s, after=%d: scanned %d of %d bytes (%v)", name, after, n, len(body), serr)
			}
			checkBatches(t, got, after, K)
		}
		for _, q := range []string{"?after=x", "?after=-1"} {
			resp := fetchWAL(t, ts, q)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s, %s: status %d, want 400", name, q, resp.StatusCode)
			}
		}
	}
}

// TestWALFetchTornStream cuts the replication stream at every byte — a
// dropped connection mid-transfer — and checks the follower contract: the
// torn prefix applies only whole records, and resuming after the last batch
// it decoded yields exactly the missing batches, each applied once.
func TestWALFetchTornStream(t *testing.T) {
	const K = 8
	ts := replTier(t, K, nil, Options{}).leader

	resp := fetchWAL(t, ts, "") // after defaults to 0: the whole log
	full, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		head, n, serr := wal.ScanStream(bytes.NewReader(full[:cut]))
		if serr != nil {
			t.Fatalf("cut %d: %v", cut, serr)
		}
		if n > int64(cut) {
			t.Fatalf("cut %d: consumed %d bytes past the tear", cut, n)
		}
		var after uint64
		if len(head) > 0 {
			after = head[len(head)-1].Seq
		}
		resp := fetchWAL(t, ts, fmt.Sprintf("?after=%d", after))
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("cut %d: resume status %d err %v", cut, resp.StatusCode, err)
		}
		tail, m, _ := wal.ScanStream(bytes.NewReader(body))
		if m != int64(len(body)) {
			t.Fatalf("cut %d: resume consumed %d of %d", cut, m, len(body))
		}
		checkBatches(t, append(append([]wal.Batch{}, head...), tail...), 0, K)
	}
}

// TestWALFetchAfterCompaction compacts the leader's log at seq 3 and commits
// seq 4. A follower at seq 3, caught up when the log was truncated, gets seq
// 4 alone; one at seq 2, whose next batch went with the old log, gets 410. The
// seq inside a fresh /snapshot is a resume point that works.
func TestWALFetchAfterCompaction(t *testing.T) {
	tr := replTier(t, 3, nil, Options{})
	ts := tr.leader
	if err := ts.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitOne(t, ts.Server, 3)

	resp := fetchWAL(t, ts, "?after=3")
	got, _, err := wal.ScanStream(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("after=3: status %d (%v)", resp.StatusCode, err)
	}
	checkBatches(t, got, 3, 4)

	resp = fetchWAL(t, ts, "?after=2")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("after=2 behind the compaction: status %d, want 410", resp.StatusCode)
	}

	sresp, err := ts.Client().Get(urlOf(ts) + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := persist.ReadSnapshot(sresp.Body)
	sresp.Body.Close()
	if err != nil || seq != 4 || sresp.Header.Get(hdrSeq) != "4" {
		t.Fatalf("/snapshot at seq %d, stamped %q (%v), want 4", seq, sresp.Header.Get(hdrSeq), err)
	}
	resp = fetchWAL(t, ts, fmt.Sprintf("?after=%d", seq))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("resume at the snapshot's seq: status %d, %d bytes, want 200 and none", resp.StatusCode, len(body))
	}
}

// TestFollowerNeverAheadOfLeader stops a commit between its fsync and its
// apply — first parked right after the fsync, then queued for a write lock
// this test holds for reading. The batch's record is whole and durable on
// disk, past the end offset the leader has published, and nothing may ship
// it: the leader publishes walEnd only in the write-lock hold that applies
// the batch, so a /wal fetch serves the applied prefix only. A -join
// follower that applied the record would answer a read at seq 2 while its
// leader answers the next one at seq 1.
func TestFollowerNeverAheadOfLeader(t *testing.T) {
	dir := t.TempDir()
	gate := newSyncGate()
	walPath := filepath.Join(dir, "updates.wal")
	s, err := NewWithOptions(cube.New(cube.NewIntDimension("x", 0, 7), cube.NewIntDimension("y", 0, 5)), Options{
		BlockSize:    2,
		Fanout:       2,
		WALPath:      walPath,
		WALOpenFile:  gate.open,
		CompactEvery: 1 << 30,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	commit := func(x int) <-chan error {
		done := make(chan error, 1)
		go func() {
			ack, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{x, 0}, Delta: 1}}, true)
			if err == nil {
				err = (<-ack).Err
			}
			done <- err
		}()
		return done
	}
	// fetched GETs /wal and returns the stamped sequence and the batches shipped.
	fetched := func() (string, int) {
		t.Helper()
		resp := fetchWAL(t, ts, "")
		defer resp.Body.Close()
		batches, _, err := wal.ScanStream(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /wal: status %d, %v", resp.StatusCode, err)
		}
		return resp.Header.Get(hdrSeq), len(batches)
	}
	if err := <-commit(0); err != nil {
		t.Fatal(err)
	}

	gate.after.Store(true)
	done := commit(1)
	release := gate.awaitPark(t)
	published := s.walEnd.Load()
	if info, err := os.Stat(walPath); err != nil || info.Size() <= published {
		t.Fatalf("record 2 is not on disk past the published end %d (%v): the window under test is not open", published, err)
	}
	if seq, n := fetched(); seq != "1" || n != 1 {
		t.Fatalf("GET /wal between fsync and apply stamped seq %s and shipped %d batches, want seq 1 and 1 batch", seq, n)
	}
	// From here the apply waits for this read lock (and new read locks for the
	// apply, which is why /wal was fetched first); nothing may be published
	// while it waits.
	s.mu.RLock()
	release()
	time.Sleep(50 * time.Millisecond) // time for the apply to publish, which it must not do
	committed, end := s.seq.Load(), s.walEnd.Load()
	s.mu.RUnlock()
	if committed != 1 || end != published {
		t.Fatalf("with the apply held back the leader committed %d and published WAL end %d, want 1 and %d", committed, end, published)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if seq, n := fetched(); seq != "2" || n != 2 {
		t.Fatalf("GET /wal after the apply stamped seq %s and shipped %d batches, want seq 2 and 2 batches", seq, n)
	}
}

// TestJoinLeaderFollowsAndRebootstraps runs the full follower lifecycle
// in-process: bootstrap from /snapshot, tail /wal, reject writes, survive a
// leader compaction that lands while it may be behind (410 → snapshot
// re-bootstrap) or caught up (it keeps tailing), and converge to the leader's
// exact answers throughout. TestFollowerRebootstrapsOnlyWhenBehindCompaction
// owns each of those two paths deterministically.
func TestJoinLeaderFollowsAndRebootstraps(t *testing.T) {
	tr := replTier(t, 5, joinLeader, Options{})
	leader, f := tr.leader, tr.follower

	want, code := sumOf(t, leader, "/query?op=sum")
	if code != http.StatusOK {
		t.Fatalf("leader sum: status %d", code)
	}
	got, code := sumOf(t, f, "/query?op=sum")
	if code != http.StatusOK || got.Value != want.Value {
		t.Fatalf("fresh follower sum %d (status %d), want %d", got.Value, code, want.Value)
	}

	// Writes bounce with a pointer at the leader.
	code, body := postBatch(t, f, []map[string]any{{"coords": []int{0, 0}, "delta": 1}})
	if code != http.StatusForbidden || !strings.Contains(body, leader.URL) {
		t.Fatalf("follower write: status %d body %s", code, body)
	}
	if _, err := f.SubmitUpdates([]ingest.Update{{Coords: []int{0, 0}, Delta: 1}}, true); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("SubmitUpdates on follower: %v, want ErrReadOnly", err)
	}

	// One pump run after the leader's commits takes the follower to the
	// leader's seq, whether it tails the log or re-bootstraps from /snapshot.
	catchUp := func(stage string) {
		t.Helper()
		ran(t, f.pump())
		want, _ := sumOf(t, leader, "/query?op=sum")
		if got, code := sumOf(t, f, "/query?op=sum"); code != http.StatusOK || got.Value != want.Value || f.Seq() != leader.Seq() {
			t.Fatalf("%s: follower at sum %d seq %d (status %d), leader %d seq %d", stage, got.Value, f.Seq(), code, want.Value, leader.Seq())
		}
	}

	for i := 5; i < 9; i++ {
		commitOne(t, leader.Server, i)
	}
	catchUp("tailing")

	// Compact right behind four more commits, then commit past it: the pump
	// must follow across whichever side of the truncation it polled on.
	for i := 9; i < 13; i++ {
		commitOne(t, leader.Server, i)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 13; i < 15; i++ {
		commitOne(t, leader.Server, i)
	}
	catchUp("across the compaction")
}

// TestFollowerRebootstrapsOnlyWhenBehindCompaction polls a follower by hand
// (it is bootstrapped without a pump). Behind a leader compaction, the follower gets a 410
// and re-bootstraps from /snapshot exactly once, counted in
// cube_shard_resync_total{kind="follower"}, and then tails the new log.
// Caught up at a compaction, it keeps following with no re-bootstrap.
func TestFollowerRebootstrapsOnlyWhenBehindCompaction(t *testing.T) {
	tr := replTier(t, 3, bootstrapFollower, Options{})
	leader, f := tr.leader, tr.follower
	poll := func(stage string, seq uint64, resyncs int64) {
		t.Helper()
		f.followFetch()
		if f.Seq() != seq || f.met.resyncFollower.Value() != resyncs {
			t.Fatalf("%s: follower at seq %d after %d re-bootstraps, want seq %d after %d",
				stage, f.Seq(), f.met.resyncFollower.Value(), seq, resyncs)
		}
		leader.mu.RLock()
		want := slices.Clone(leader.cube.Data().Data())
		leader.mu.RUnlock()
		f.mu.RLock()
		defer f.mu.RUnlock()
		if got := f.cube.Data().Data(); !slices.Equal(got, want) {
			t.Fatalf("%s: follower holds %v, leader %v", stage, got, want)
		}
	}

	// Seqs 4 and 5 go with the old log before the follower polls.
	commitOne(t, leader.Server, 3)
	commitOne(t, leader.Server, 4)
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitOne(t, leader.Server, 5)
	poll("behind the compaction", 6, 1)
	commitOne(t, leader.Server, 6)
	poll("tailing the new log", 7, 1)

	// The log is truncated at the follower's own seq.
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	poll("caught up at the compaction", 7, 1)
	commitOne(t, leader.Server, 7)
	poll("tailing past the compaction", 8, 1)
}

// TestFollowerApplyPanicRebootstraps: a replicated batch whose apply panics
// releases the follower's write lock, and its poll gets the panic back as an
// apply error, logged with its stack: the follower re-bootstraps from the
// leader's snapshot, counted in cube_shard_resync_total{kind="follower"}, and
// answers the leader's sum at the leader's seq. The poll runs on a goroutine
// of the test's, so a poll that panics or never returns fails the test.
func TestFollowerApplyPanicRebootstraps(t *testing.T) {
	var logs syncLog
	tr := replTier(t, 3, bootstrapFollower, Options{Logf: logs.printf})
	leader, f := tr.leader, tr.follower
	f.poisonApply() // the re-bootstrap builds a fresh router
	commitOne(t, leader.Server, 3)
	resyncs := f.met.resyncFollower.Value()
	polled := make(chan any, 1)
	go func() {
		defer func() { polled <- recover() }()
		f.followFetch()
	}()
	select {
	case p := <-polled:
		if p != nil {
			t.Fatalf("the poll panicked: %v", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the poll did not return")
	}
	if line := logs.find("replicated batch seq 4 panicked"); !strings.Contains(line, "applyCellsLocked") {
		t.Fatalf("the panic was not logged with its stack: %q", line)
	}
	if got := f.met.resyncFollower.Value(); got != resyncs+1 {
		t.Fatalf("%d re-bootstraps after the panicking apply, want %d", got, resyncs+1)
	}
	want, _ := sumOf(t, leader, "/query?op=sum")
	if got, code := sumOf(t, f, "/query?op=sum"); code != http.StatusOK || got.Value != want.Value || f.Seq() != leader.Seq() {
		t.Fatalf("follower at sum %d seq %d (status %d), leader %d seq %d", got.Value, f.Seq(), code, want.Value, leader.Seq())
	}
}

// TestFollowerLagGauges pins the replication-lag observability contract: a
// caught-up follower reports zero lag through both Health().ReplicaLagSeq
// and the cube_replica_wal_lag_seq gauge, rides a leader compaction without
// a re-bootstrap (cube_shard_resync_total{kind="follower"} stays 0), and the
// lag gauges return to zero after the follower catches back up.
func TestFollowerLagGauges(t *testing.T) {
	tr := replTier(t, 5, joinLeader, Options{Metrics: true})
	leader, f := tr.leader, tr.follower

	// One pump run after the leader's commits applies them and learns the
	// leader's seq, which is what the lag gauges derive from.
	caughtUp := func(stage string) {
		t.Helper()
		ran(t, f.pump())
		h, m := f.Health(), scrape(t, f)
		if f.Seq() != leader.Seq() || h.ReplicaLagSeq != 0 ||
			!strings.Contains(m, "cube_replica_wal_lag_seq 0") ||
			!strings.Contains(m, "cube_replica_wal_lag_seconds 0") {
			t.Fatalf("%s: follower at seq %d, leader at %d, health lag %d, metrics:\n%s", stage, f.Seq(), leader.Seq(), h.ReplicaLagSeq, m)
		}
	}

	caughtUp("join")

	// Ship sweep: one batch at a time, demanding the gauges return to zero
	// after every single catch-up, not just at the end.
	for i := 5; i < 9; i++ {
		commitOne(t, leader.Server, i)
		caughtUp("tailing")
	}
	if m := scrape(t, f); !strings.Contains(m, `cube_shard_resync_total{kind="follower"} 0`) {
		t.Fatalf("follower resync counter should read 0 before any re-bootstrap, metrics:\n%s", m)
	}

	// Compact the leader at the follower's seq: the new log starts there, so
	// the pump keeps tailing it and the resync counter must not tick.
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 9; i < 13; i++ {
		commitOne(t, leader.Server, i)
	}
	caughtUp("across the compaction")
	if m := scrape(t, f); !strings.Contains(m, `cube_shard_resync_total{kind="follower"} 0`) {
		t.Fatalf("a caught-up follower re-bootstrapped across a compaction, metrics:\n%s", m)
	}
}

// --- remote shard tier ---

// TestRemoteShardTier is the in-process version of the kill-one-shard
// smoke: a leader scatter–gathers over two shard servers, answers exactly
// while both are up, degrades sums to partial answers with sound bounds
// while one is down (and reports it on /readyz), and converges back to
// exact answers once the shard returns and the probe re-pushes its slab.
func TestRemoteShardTier(t *testing.T) {
	tr := newTier(t, tierSpec{shards: 2, opts: Options{ShardTimeout: 2 * time.Second}})
	leader := tr.leader
	query := func(q string) (queryResponse, int) {
		t.Helper()
		return sumOf(t, leader, q)
	}
	naiveSum := func(x0, x1, y0, y1 int) int64 { return naive.SumInt64(tr.oracle, tr.region(x0, x1, y0, y1), nil) }

	// Both shards up: exact answers, no partial marker, 200 /readyz.
	out, code := query("/query?op=sum&x=2..8&y=1..6")
	if code != http.StatusOK || out.Partial || out.Value != naiveSum(2, 8, 1, 6) {
		t.Fatalf("healthy sum: %+v status %d, want exact %d", out, code, naiveSum(2, 8, 1, 6))
	}
	if h := leader.Health(); !h.Ready || len(h.ShardsDown) != 0 {
		t.Fatalf("healthy Health = %+v", h)
	}

	// Updates scatter through the remote engines and stay exact.
	tr.commit(3, 3, 100)
	out, code = query("/query?op=sum&x=2..8&y=1..6")
	if code != http.StatusOK || out.Partial || out.Value != naiveSum(2, 8, 1, 6) {
		t.Fatalf("post-update sum: %+v, want exact %d", out, naiveSum(2, 8, 1, 6))
	}

	// Kill shard 1: the first sum covering its slab finds it gone and
	// degrades to a partial answer whose bounds still contain the oracle;
	// /readyz flips.
	tr.stop(tr.shards[1])
	out, code = query("/query?op=sum&x=2..8&y=1..6")
	if code != http.StatusOK || !out.Partial {
		t.Fatalf("sum with shard 1 gone: %+v status %d, want partial", out, code)
	}
	if out.LowerBnd == nil || out.UpperBnd == nil {
		t.Fatalf("partial answer missing bounds: %+v", out)
	}
	if want := naiveSum(2, 8, 1, 6); *out.LowerBnd > want || want > *out.UpperBnd {
		t.Fatalf("partial bounds [%d,%d] miss oracle %d", *out.LowerBnd, *out.UpperBnd, want)
	}
	if len(out.Missing) == 0 {
		t.Fatalf("partial answer names no missing shards: %+v", out)
	}
	if h := leader.Health(); h.Ready || len(h.ShardsDown) != 1 {
		t.Fatalf("degraded Health = %+v", h)
	}
	// A sum entirely inside the live shard's slab stays exact.
	out, code = query("/query?op=sum&x=0..3&y=0..7")
	if code != http.StatusOK || out.Partial || out.Value != naiveSum(0, 3, 0, 7) {
		t.Fatalf("live-slab sum while degraded: %+v, want exact %d", out, naiveSum(0, 3, 0, 7))
	}
	// Extremes need every covered slab: 503, not a wrong answer.
	if _, code = query("/query?op=max&x=2..8"); code != http.StatusServiceUnavailable {
		t.Fatalf("max over a missing slab: status %d, want 503", code)
	}

	// Updates keep committing while a shard is down (its slab re-syncs from
	// the leader's authoritative cube on return).
	tr.commit(9, 0, 7)

	// Restart the shard at the same address: the probe re-pushes the slab
	// (including the update committed while it was down) and exact answers
	// return.
	tr.shards[1] = tr.bootShard("shard1")
	waitFor(t, "the resync loop to re-push shard 1", func() bool { return leader.Health().Ready })
	if out, code = query("/query?op=sum&x=2..9&y=0..7"); code != http.StatusOK || out.Partial || out.Value != naiveSum(2, 9, 0, 7) {
		t.Fatalf("recovered sum %+v (status %d), want exact %d", out, code, naiveSum(2, 9, 0, 7))
	}
	if h := leader.Health(); !h.Ready || len(h.ShardsDown) != 0 {
		t.Fatalf("recovered Health = %+v", h)
	}
}

// TestShardLagGauges reads cube_shard_lag_seq and cube_shard_lag_seconds off
// a leader over two shards. Killed, shard 1 is k batches behind after k
// commits; restarted and re-pushed by the probe, both gauges read 0. A shard
// that never synced holds none of the leader's batches, so it reads the
// leader's seq: here a seq recovered from the leader's WAL at boot. Commits
// are delivered after the ack, so the gauges are read after a read through
// the leader, which waits for the delivery.
func TestShardLagGauges(t *testing.T) {
	opts := Options{Metrics: true, WALPath: filepath.Join(t.TempDir(), "u.wal")}
	tr := newTier(t, tierSpec{shards: 2, opts: opts})
	lag := func() (seq, secs float64) {
		t.Helper()
		if _, code := sumOf(t, tr.leader, "/query?op=sum"); code != http.StatusOK {
			t.Fatalf("a read through the leader answered %d", code)
		}
		body := scrape(t, tr.leader)
		return seriesValue(body, "cube_shard_lag_seq", ""), seriesValue(body, "cube_shard_lag_seconds", "")
	}

	tr.commit(9, 0, 1)
	if seq, secs := lag(); seq != 0 || secs != 0 {
		t.Fatalf("every shard up: lag %v batches, %v s, want 0 and 0", seq, secs)
	}
	tr.stop(tr.shards[1])
	const k = 3
	for range k {
		tr.commit(9, 0, 1)
	}
	if seq, secs := lag(); seq != k || secs < 0 {
		t.Fatalf("shard 1 down for %d commits: lag %v batches, %v s, want %d and >= 0", k, seq, secs, k)
	}
	tr.shards[1] = tr.bootShard("shard1")
	waitFor(t, "shard 1 to resync", func() bool { return tr.leader.Health().Ready })
	if seq, secs := lag(); seq != 0 || secs != 0 {
		t.Fatalf("shard 1 resynced: lag %v batches, %v s, want 0 and 0", seq, secs)
	}

	// Reboot at the same address over the same WAL, at seq 1 + k, with shard
	// 1 at a host that refuses every push.
	tr.leader.Close()
	opts = withTierDefaults(opts)
	opts.ShardURLs = []string{tr.shards[0].URL, "http://nowhere"}
	tr.leader = tr.boot("leader", tierCube(), opts)
	if seq, _ := lag(); seq != 1+k || tr.leader.Seq() != 1+k {
		t.Fatalf("never-synced shard at leader seq %d: lag %v batches, want %d", tr.leader.Seq(), seq, 1+k)
	}
}

// refuseShard1 is a wire hook under which shard 1 refuses every exchange from
// boot, so it never attaches.
func refuseShard1(host string, r *http.Request) fault {
	if host == "shard1" {
		return refuse
	}
	return pass
}

// A shard that never attaches (its address refuses connections from boot)
// must still contribute covering bounds to partial sums: the leader seeds
// each engine's conservative cell-value bounds from the authoritative slab
// during the attach attempt, so the SumResult contract — the true answer
// always lies in [Lo, Hi] — holds even for a cube with nonzero initial
// data and a shard that was never synced.
func TestNeverSyncedShardBoundsCoverOracle(t *testing.T) {
	tr := newTier(t, tierSpec{shards: 2, opts: Options{ShardTimeout: time.Second}, hook: refuseShard1})
	want := naive.SumInt64(tr.oracle, tr.oracle.Bounds(), nil)
	out, code := sumOf(t, tr.leader, "/query?op=sum&x=0..9&y=0..7")
	if code != http.StatusOK || !out.Partial {
		t.Fatalf("sum over a never-synced shard: %+v status %d, want a partial answer", out, code)
	}
	if out.LowerBnd == nil || out.UpperBnd == nil {
		t.Fatalf("partial answer missing bounds: %+v", out)
	}
	if *out.LowerBnd > want || want > *out.UpperBnd {
		t.Fatalf("never-synced shard bounds [%d, %d] miss oracle %d", *out.LowerBnd, *out.UpperBnd, want)
	}
}

// TestPartialBoundsNeverWrap serves partial sums over a 2048×1024 cube in two
// x slabs whose never-synced second slab holds cells of 2^44, so a missing
// piece of volume V is charged V·2^44: it fits in int64 below V = 2^19 and
// wraps to 0 at V = 2^20, where an unsaturated merge answered the whole cube
// as [7, 7]. Every partial interval must contain the math/big sum or say
// unbounded, and a piece that fits must stay bounded.
func TestPartialBoundsNeverWrap(t *testing.T) {
	const cell = int64(1) << 44
	c := cube.New(cube.NewIntDimension("x", 0, 2047), cube.NewIntDimension("y", 0, 1023))
	a := c.Data()
	a.Set(7, 5, 5) // the live slab's only nonzero cell
	for x := 1024; x < 2048; x++ {
		for y := 0; y < 1024; y++ {
			a.Set(cell, x, y)
		}
	}
	tr := newTier(t, tierSpec{cube: c, shards: 2, opts: Options{BlockSize: 1, Fanout: 4, ShardTimeout: time.Second}, hook: refuseShard1})
	if m := tr.leader.router.Map(); m.Dim() != 0 || m.Slab(1) != (ndarray.Range{Lo: 1024, Hi: 2047}) {
		t.Fatalf("the leader split dimension %d with slab 1 = %v, want x at 1024", m.Dim(), m.Slab(1))
	}
	for _, q := range []struct {
		x0, x1, y0, y1 int
		bounded        bool
	}{
		{0, 2047, 0, 1023, false}, // V = 2^20 missing
		{1024, 2047, 0, 1023, false},
		{1024, 1535, 0, 1023, false},   // V = 2^19: 2^63 is one past MaxInt64
		{1024, 1535, 0, 1022, true},    // V = 2^19 − 512
		{1000, 1055, 0, 15, true},      // a live and a missing piece
		{2047, 2047, 1023, 1023, true}, // one cell
	} {
		r := ndarray.Region{{Lo: q.x0, Hi: q.x1}, {Lo: q.y0, Hi: q.y1}}
		missing := r.Volume()
		if q.x0 < 1024 {
			missing = (q.x1 - 1023) * (q.y1 - q.y0 + 1)
		}
		want := new(big.Int).Mul(big.NewInt(int64(missing)), big.NewInt(cell))
		if q.x0 <= 5 && 5 <= q.x1 && q.y0 <= 5 && 5 <= q.y1 {
			want.Add(want, big.NewInt(7))
		}
		out, code := sumOf(t, tr.leader, fmt.Sprintf("/query?op=sum&x=%d..%d&y=%d..%d", q.x0, q.x1, q.y0, q.y1))
		if code != http.StatusOK || !out.Partial || out.LowerBnd == nil || out.UpperBnd == nil {
			t.Fatalf("sum over %v: %+v status %d, want a partial answer with bounds", r, out, code)
		}
		lo, hi := big.NewInt(*out.LowerBnd), big.NewInt(*out.UpperBnd)
		if !out.Unbounded && (lo.Cmp(want) > 0 || want.Cmp(hi) > 0) {
			t.Errorf("sum over %v: bounds [%d, %d] miss %v and do not say unbounded", r, *out.LowerBnd, *out.UpperBnd, want)
		}
		if out.Unbounded == q.bounded {
			t.Errorf("sum over %v: unbounded = %v, want %v (bounds [%d, %d], sum %v)", r, out.Unbounded, !q.bounded, *out.LowerBnd, *out.UpperBnd, want)
		}
	}
}

// A commit that lands while a resync's /state push is in flight is newer
// than the pushed snapshot, so the snapshot is stale the moment it arrives.
// The leader must not mark the shard up off the push alone (it would serve
// the stale slab as exact forever): the engine holds the racing commit's
// record behind the push and sends it before it marks the shard up.
func TestResyncHoldsDownWhenCommitRacesStatePush(t *testing.T) {
	// The gate can hold a /state push to shard 1 mid-flight: the capture
	// already happened on the leader, so a commit submitted while the push is
	// held is guaranteed to race it.
	var holding atomic.Bool
	g := newGate(t)
	tr := newTier(t, tierSpec{shards: 2, opts: Options{ShardTimeout: time.Second}, hook: func(host string, r *http.Request) fault {
		if host == "shard1" && r.URL.Path == "/state" && holding.Load() {
			return g.hold(r)
		}
		return pass
	}})
	leader := tr.leader
	want := func() int64 { return naive.SumInt64(tr.oracle, tr.region(5, 9, 0, 7), nil) }

	// Healthy sanity check, then kill shard 1; a commit into its slab fails
	// its delivery and marks it down. The read after it waits for that
	// delivery.
	if out, code := sumOf(t, leader, "/query?op=sum&x=0..9&y=0..7"); code != http.StatusOK || out.Partial {
		t.Fatalf("healthy sum: %+v status %d", out, code)
	}
	tr.stop(tr.shards[1])
	tr.commit(9, 0, 7)
	if out, code := sumOf(t, leader, "/query?op=sum&x=0..9&y=0..7"); code != http.StatusOK || !out.Partial {
		t.Fatalf("sum after shard 1's delivery failed: %+v status %d, want partial", out, code)
	}
	if h := leader.Health(); len(h.ShardsDown) != 1 {
		t.Fatalf("shard 1 not down after its scatter failed: %+v", h)
	}

	// Bring the shard back, but hold the probe's next push mid-flight, and
	// land a commit into its slab inside the push window.
	holding.Store(true)
	tr.shards[1] = tr.bootShard("shard1")
	g.awaitArrival(t)
	tr.commit(5, 0, 1000)
	holding.Store(false)
	g.open()

	// The held (stale) push must not bring the shard up as current; the
	// resync re-captures, and the tier comes up with exact answers that
	// include the racing commit. The buggy path comes up with exact answers
	// that are permanently wrong instead.
	waitFor(t, "the resync loop to bring shard 1 up", func() bool { return leader.Health().Ready })
	if out, code := sumOf(t, leader, "/query?op=sum&x=5..9&y=0..7"); code != http.StatusOK || out.Partial || out.Value != want() {
		t.Fatalf("shard 1 came up answering %+v (status %d), want the exact oracle sum %d", out, code, want())
	}
}

// TestApplyReplicatedRejectsBadCoords: a leader whose /wal serves a CRC-valid
// record naming a cell the follower's cube does not have. The follower applies
// the good batch before it, leaves that record unapplied, and re-bootstraps
// from /snapshot, as on a 410. It used to apply the record unchecked, which
// panicked on the follow pump's goroutine with the commit and write locks
// held and took the process down.
func TestApplyReplicatedRejectsBadCoords(t *testing.T) {
	var records [][]byte // records[i] is batch i+1's
	for _, b := range []wal.Batch{
		{Seq: 1, Updates: []wal.Update{{Coords: []int{1, 1}, Delta: 9}}},
		{Seq: 2, Updates: []wal.Update{{Coords: []int{2, 3}, Delta: 5}, {Coords: []int{7, 0}, Delta: 1}}}, // a 4×4 cube has no (7, 0)
	} {
		records = append(records, sealedBatch(t, b.Seq, b.Updates...))
	}
	// The leader's state after the log: what the follower must converge to.
	later := ndarray.New[int64](4, 4)
	later.Set(9, 1, 1)
	later.Set(5, 2, 3)
	snapshot := func(seq uint64, cells *ndarray.Array[int64]) []byte {
		var b bytes.Buffer
		if err := persist.WriteSnapshot(&b, seq, cells); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	var snapshots atomic.Int32
	w := newWire(nil)
	t.Cleanup(w.close)
	w.serve("leader", http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/schema":
			io.WriteString(rw, `{"dimensions":[{"name":"x","size":4},{"name":"y","size":4}]}`)
		case "/snapshot":
			// Join at seq 0 before the log; re-bootstrap at its end.
			seq, cells := uint64(0), ndarray.New[int64](4, 4)
			if snapshots.Add(1) > 1 {
				seq, cells = 2, later
			}
			rw.Write(snapshot(seq, cells))
		case "/wal":
			after, _ := strconv.Atoi(r.URL.Query().Get("after"))
			rw.Header().Set(hdrSeq, "2")
			rw.Write(bytes.Join(records[min(after, len(records)):], nil))
		default:
			http.NotFound(rw, r)
		}
	}))

	f, err := joinLeader(context.Background(), "http://leader", withTierDefaults(Options{BlockSize: 1, Fanout: 2}), w.client)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	// The first poll applies batch 1, refuses batch 2 and re-bootstraps; the
	// polls after it find nothing more to apply.
	for w.count("leader", "GET /wal") < 4 {
		ran(t, f.pump())
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if got := f.cube.Data().Data(); f.seq.Load() != 2 || !slices.Equal(got, later.Data()) || snapshots.Load() != 2 {
		t.Fatalf("follower at seq %d holds %v after %d snapshots, want seq 2 and the leader's %v after 2", f.seq.Load(), got, snapshots.Load(), later.Data())
	}
	if s, err := f.router.Sum(context.Background(), ndarray.Reg(0, 3, 0, 3), nil); err != nil || s != 14 {
		t.Fatalf("follower's full-cube sum = %d (err %v), want 14", s, err)
	}
}

// TestRecordsRepeatingACellCoalesce: a commit never logs a cell twice, yet
// WAL replay and replication are the two boundaries where a record that
// does can arrive, and the engines' apply trusts each cell to be named
// once. Replay adds into the cells before any structure is built; a
// replicated record is coalesced before it is applied. Either way the cell
// ends at its net delta and the trees agree with a scan of the cells. The
// repeated cell's deltas first fall and then rise past every cell, so an
// apply handed both would leave the max tree holding the risen value.
func TestRecordsRepeatingACellCoalesce(t *testing.T) {
	newCube := func() *cube.Cube {
		c := cube.New(cube.NewIntDimension("x", 0, 3), cube.NewIntDimension("y", 0, 3))
		for i := range c.Data().Data() {
			c.Data().Data()[i] = int64(i)
		}
		return c
	}
	record := wal.Batch{Seq: 1, Updates: []wal.Update{
		{Coords: []int{1, 1}, Delta: -95}, {Coords: []int{2, 0}, Delta: 3}, {Coords: []int{1, 1}, Delta: 100},
	}}
	check := func(t *testing.T, s *Server) {
		t.Helper()
		a := s.cube.Data()
		if s.Seq() != 1 || a.At(1, 1) != 10 || a.At(2, 0) != 11 {
			t.Fatalf("seq %d, cells (1,1) = %d and (2,0) = %d; want seq 1, 10 and 11", s.Seq(), a.At(1, 1), a.At(2, 0))
		}
		for _, isMin := range []bool{false, true} {
			_, v, _, err := s.router.Extreme(context.Background(), a.Bounds(), isMin, nil)
			want := naive.Max
			if isMin {
				want = naive.Min
			}
			if _, w, _ := want(a, a.Bounds(), nil); err != nil || v != w {
				t.Fatalf("min=%v: the tree answers %d (err %v), the cells %d", isMin, v, err, w)
			}
		}
	}
	t.Run("replay", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "updates.wal")
		l, err := wal.Create(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(record); err != nil {
			t.Fatal(err)
		}
		l.Close()
		s, err := NewWithOptions(newCube(), Options{BlockSize: 1, Fanout: 2, WALPath: path, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check(t, s)
	})
	t.Run("replication", func(t *testing.T) {
		s := New(newCube(), 1, 2)
		if held, err := s.ApplyReplicated([]wal.Batch{record}); held != 1 || err != nil {
			t.Fatalf("ApplyReplicated held %d, err %v; want 1, nil", held, err)
		}
		check(t, s)
	})
}

// TestApplyReplicatedRejectsGap: a stream that skips a batch stops the
// follower at the gap. Given seqs 1 and 3, it holds batch 1, refuses batch 3
// with an error and stays at seq 1; it used to apply batch 3 and claim seq 3
// without batch 2's deltas.
func TestApplyReplicatedRejectsGap(t *testing.T) {
	s := New(cube.New(cube.NewIntDimension("x", 0, 3), cube.NewIntDimension("y", 0, 3)), 1, 2)
	held, err := s.ApplyReplicated([]wal.Batch{
		{Seq: 1, Updates: []wal.Update{{Coords: []int{1, 1}, Delta: 9}}},
		{Seq: 3, Updates: []wal.Update{{Coords: []int{2, 2}, Delta: 5}}},
	})
	if held != 1 || err == nil || s.Seq() != 1 {
		t.Fatalf("ApplyReplicated([1, 3]) held %d, err %v, seq %d; want 1, an error, seq 1", held, err, s.Seq())
	}
	if v := s.cube.Data().At(2, 2); v != 0 {
		t.Fatalf("cell (2, 2) = %d after the refused batch, want 0", v)
	}
}
