package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/faultio"
	"rangecube/internal/ingest"
	"rangecube/internal/wal"
)

// faultyServer boots an 8x8 server whose WAL file answers to a fault
// injector, with snapshot-based recovery and a fast degraded-mode probe.
func faultyServer(t *testing.T, mutate func(*Options)) (*Server, *httptest.Server, *faultio.Injector, string) {
	t.Helper()
	dir := t.TempDir()
	inj := faultio.NewInjector()
	c := cube.New(
		cube.NewIntDimension("x", 0, 7),
		cube.NewIntDimension("y", 0, 7),
	)
	opts := Options{
		BlockSize:    3,
		Fanout:       3,
		WALPath:      filepath.Join(dir, "updates.wal"),
		SnapshotPath: filepath.Join(dir, "cube.snap"),
		CompactEvery: 1 << 30,
		WALOpenFile:  func(p string) (wal.File, error) { return inj.Open(p) },
		Logf:         func(string, ...any) {},
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := NewWithOptions(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, inj, dir
}

// waitRecovered waits until the storage probe has left degraded mode.
func waitRecovered(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, "the storage probe to leave degraded mode", func() bool { return !s.Health().Degraded })
}

// A single repairable fsync fault is invisible to clients: the update acks
// 200, the server never degrades, and the repair shows up in Health.
func TestUpdateSurvivesRepairableFault(t *testing.T) {
	s, ts, inj, _ := faultyServer(t, func(o *Options) { o.Metrics = true })
	inj.FailSyncs(1, faultio.ErrIO)
	status, ack := postUpdates(t, ts, "", []jsonUpdate{{Coords: []int{1, 2}, Delta: 5}})
	if status != 200 || ack.Seq != 1 {
		t.Fatalf("status=%d ack=%+v, want a clean 200 seq=1", status, ack)
	}
	h := s.Health()
	if h.Degraded || h.WALFaults != 1 || h.WALRepairs != 1 {
		t.Fatalf("health after inline repair: %+v", h)
	}
	body := scrape(t, ts)
	if faults, repairs := seriesValue(body, "cube_wal_faults_total", ""), seriesValue(body, "cube_wal_repairs_total", ""); faults != 1 || repairs != 1 {
		t.Fatalf("cube_wal_faults_total %v, cube_wal_repairs_total %v after one inline repair, want 1 and 1", faults, repairs)
	}
	if got, code := sumOf(t, ts, "/query?op=sum"); code != http.StatusOK || got.Value != 5 {
		t.Fatalf("sum=%d, want 5 (status %d)", got.Value, code)
	}
}

// An unrepairable fault flips the server into degraded read-only mode:
// updates shed with 503 + Retry-After, queries keep serving, /healthz stays
// 200, /readyz flips to 503 — and the probe recovers everything without a
// restart, after which a reboot from the recovery artifacts reproduces
// exactly the acked state.
func TestDegradedModeAndProbeRecovery(t *testing.T) {
	s, ts, inj, dir := faultyServer(t, func(o *Options) { o.Metrics = true })

	if status, _ := postUpdates(t, ts, "", []jsonUpdate{{Coords: []int{0, 0}, Delta: 7}}); status != 200 {
		t.Fatalf("healthy update: status %d", status)
	}

	// A burst the rewind-and-retry path cannot clear: poisoned WAL.
	inj.FailSyncs(16, faultio.ErrNoSpace)
	status, _ := postUpdates(t, ts, "", []jsonUpdate{{Coords: []int{3, 3}, Delta: 100}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("update during fault burst: status %d, want 503", status)
	}
	if !s.Health().Degraded {
		t.Fatal("server not degraded after unrepairable WAL fault")
	}

	// Shed behavior: 503 + Retry-After on /update, ErrDegraded in-process.
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json",
		nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /update: status %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("degraded /update Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if _, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{1, 1}, Delta: 1}}, true); !errors.Is(err, ErrDegraded) {
		t.Fatalf("SubmitUpdates while degraded: %v, want ErrDegraded", err)
	}

	// Probes: alive, not ready.
	var ok map[string]bool
	if status := get(t, ts, "/healthz", &ok); status != 200 || !ok["ok"] {
		t.Fatalf("/healthz while degraded: status %d body %v", status, ok)
	}
	var h Health
	if status := get(t, ts, "/readyz", &h); status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while degraded: status %d", status)
	}
	if h.Ready || !h.Degraded || h.Reason == "" {
		t.Fatalf("/readyz body while degraded: %+v", h)
	}
	if got := seriesValue(scrape(t, ts), "cube_degraded", ""); got != 1 {
		t.Fatalf("cube_degraded = %v while degraded, want 1", got)
	}

	// Reads are unaffected and reflect only acked state — the failed update
	// must not have applied.
	if got, code := sumOf(t, ts, "/query?op=sum"); code != http.StatusOK || got.Value != 7 {
		t.Fatalf("sum while degraded = %d, want 7 (failed update leaked in) (status %d)", got.Value, code)
	}

	// Heal the disk; the probe rebuilds durability and exits degraded mode.
	inj.Clear()
	waitRecovered(t, s)
	if status := get(t, ts, "/readyz", &h); status != 200 || !h.Ready || h.Recoveries < 1 {
		t.Fatalf("/readyz after recovery: status %d body %+v", status, h)
	}
	body := scrape(t, ts)
	if degraded, recoveries := seriesValue(body, "cube_degraded", ""), seriesValue(body, "cube_storage_recoveries_total", ""); degraded != 0 || recoveries < 1 {
		t.Fatalf("after recovery: cube_degraded %v, cube_storage_recoveries_total %v, want 0 and >= 1", degraded, recoveries)
	}

	// Writes work again with a contiguous sequence.
	status, ack := postUpdates(t, ts, "", []jsonUpdate{{Coords: []int{5, 5}, Delta: 30}})
	if status != 200 || ack.Seq != 2 {
		t.Fatalf("post-recovery update: status=%d ack=%+v, want 200 seq=2", status, ack)
	}
	if got, code := sumOf(t, ts, "/query?op=sum"); code != http.StatusOK || got.Value != 37 {
		t.Fatalf("sum after recovery = %d, want 37 (status %d)", got.Value, code)
	}

	// The recovery artifacts (snapshot at the degraded-mode seq + fresh WAL
	// holding only the post-recovery batch) reproduce the acked state on a
	// cold boot.
	if err := s.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	c2 := cube.New(cube.NewIntDimension("x", 0, 7), cube.NewIntDimension("y", 0, 7))
	s2, err := NewWithOptions(c2, Options{
		BlockSize: 3, Fanout: 3,
		WALPath:      filepath.Join(dir, "updates.wal"),
		SnapshotPath: filepath.Join(dir, "cube.snap"),
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("reboot from recovery artifacts: %v", err)
	}
	defer s2.Close()
	if s2.Seq() != 2 {
		t.Fatalf("rebooted seq=%d, want 2", s2.Seq())
	}
	if got := s2.cube.Data().At(0, 0) + s2.cube.Data().At(5, 5); got != 37 {
		t.Fatalf("rebooted state sums to %d, want 37", got)
	}
}

// The ingest flusher after a commit error: every sync ack in the failed
// group carries the storage error, later groups are shed (not silently
// dropped), and after recovery new groups commit with contiguous sequence
// numbers whose WAL prefix is gapless.
func TestFlusherCommitErrorFansOutAndRecovers(t *testing.T) {
	s, _, inj, dir := faultyServer(t, func(o *Options) { o.IngestQueue = 64 })

	// Park the flusher's first commit on the commit mutex, ahead of its WAL
	// append (the write lock would park it after), so later submissions pile
	// into the queue behind it.
	s.commitMu.Lock()
	var acks []<-chan ingest.Result
	for i := 0; i < 3; i++ {
		ack, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{i, i}, Delta: int64(10 * (i + 1))}}, true)
		if err != nil {
			s.commitMu.Unlock()
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	inj.FailSyncs(64, faultio.ErrNoSpace)
	s.commitMu.Unlock()

	// Every queued submission fails: the first group hits the fault burst
	// and poisons the log; groups behind it hit the poisoned fail-fast. No
	// ack may report success, and each error is the storage error (or its
	// degraded descendant), never a silent drop.
	for i, ack := range acks {
		res := <-ack
		if res.Err == nil {
			t.Fatalf("submission %d acked success during fault burst (seq %d)", i, res.Seq)
		}
	}
	if !s.Health().Degraded {
		t.Fatal("flusher commit failure did not degrade the server")
	}
	if got := s.Seq(); got != 0 {
		t.Fatalf("failed groups advanced seq to %d", got)
	}

	inj.Clear()
	waitRecovered(t, s)

	// Post-recovery groups commit with contiguous sequences.
	var seqs []uint64
	for i := 0; i < 3; i++ {
		ack, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{7, i}, Delta: 1}}, true)
		if err != nil {
			t.Fatalf("post-recovery submit %d: %v", i, err)
		}
		res := <-ack
		if res.Err != nil {
			t.Fatalf("post-recovery commit %d: %v", i, res.Err)
		}
		seqs = append(seqs, res.Seq)
	}
	for i, q := range seqs {
		if q != uint64(i+1) {
			t.Fatalf("post-recovery seqs %v, want contiguous 1..3", seqs)
		}
	}

	// Gapless-prefix sweep over the post-recovery WAL: every byte prefix
	// scans to a contiguous batch prefix — faults never leave a seq gap.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "updates.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for limit := walHeaderLen(t); limit <= len(full); limit++ {
		batches, _, err := wal.Scan(bytes.NewReader(full[:limit]))
		if err != nil {
			t.Fatalf("prefix %d: %v", limit, err)
		}
		for i, b := range batches {
			if b.Seq != uint64(i+1) {
				t.Fatalf("prefix %d: batch %d has seq %d (gap)", limit, i, b.Seq)
			}
		}
	}
}

// A commit that panics in its apply, under the write lock, fails its writer
// with 503 and leaves reads answering. The server stays degraded with the
// reason "commit panicked": writes are shed, the storage probe does not
// snapshot the cube it may have half-applied, and Close leaves the log for
// the next boot, which replays the batch whole.
func TestCommitPanicDegradesAndKeepsReading(t *testing.T) {
	var logs syncLog
	s, ts, _, dir := faultyServer(t, func(o *Options) { o.Logf = logs.printf })
	restore := s.poisonApply()
	status, _ := postUpdates(t, ts, "", []jsonUpdate{{Coords: []int{1, 2}, Delta: 5}})
	restore()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("the panicking commit's /update answered %d, want 503", status)
	}
	if line := logs.find("ingest: commit panicked"); !strings.Contains(line, "applyCellsLocked") {
		t.Fatalf("the panic was not logged with its stack: %q", line)
	}
	if _, code := sumOf(t, ts, "/query?op=sum"); code != http.StatusOK {
		t.Fatalf("/query after the panic: status %d", code)
	}
	waitFor(t, "the storage probe to run", func() bool { return s.storageRuns() > 0 })
	var h Health
	if code := get(t, ts, "/readyz", &h); code != http.StatusServiceUnavailable || !h.Degraded || h.Reason != "commit panicked" {
		t.Fatalf("/readyz after the panic: %d %+v, want 503 degraded by \"commit panicked\"", code, h)
	}
	if status, _ := postUpdates(t, ts, "", []jsonUpdate{{Coords: []int{3, 3}, Delta: 1}}); status != http.StatusServiceUnavailable {
		t.Fatalf("/update on the degraded server answered %d, want 503", status)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := NewWithOptions(cube.New(cube.NewIntDimension("x", 0, 7), cube.NewIntDimension("y", 0, 7)), Options{
		BlockSize: 3, Fanout: 3, WALPath: filepath.Join(dir, "updates.wal"), SnapshotPath: filepath.Join(dir, "cube.snap"),
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(again.Handler())
	defer func() { ts2.Close(); again.Close() }()
	if got, _ := sumOf(t, ts2, "/query?op=sum"); got.Value != 5 || again.Seq() != 1 {
		t.Fatalf("the restarted server holds sum %d at seq %d, want the replayed batch: 5 at seq 1", got.Value, again.Seq())
	}
}

// The queue-full 429 carries a Retry-After hint derived from the live queue
// depth and measured commit latency, clamped to [1, 30] seconds.
func TestQueueFullRetryAfterDerived(t *testing.T) {
	s, ts, _, _ := faultyServer(t, func(o *Options) { o.IngestQueue = 2 })

	// Pretend commits have been measured at ~2s each so a non-empty queue
	// maps to a multi-second hint.
	for i := 0; i < 8; i++ {
		s.met.ingestMet.CommitNanos.Observe(2e9)
	}

	// Park the flusher on the write lock: submit one update, wait until the
	// flusher has pulled it (its greedy gather empties the queue), and only
	// then fill the queue — the parked flusher cannot drain it.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{0, 0}, Delta: 1}}, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the flusher to drain the first submission", func() bool { return s.batcher.Depth() == 0 })
	time.Sleep(20 * time.Millisecond) // let the flusher pass gather and block on the lock
	for {
		if _, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{0, 0}, Delta: 1}}, false); errors.Is(err, ingest.ErrQueueFull) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/update?durability=async", "application/json",
		strings.NewReader(`{"updates":[{"coords":[0,0],"delta":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second shed: status %d", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 2 || ra > 30 {
		t.Fatalf("derived Retry-After %q, want an integer in [2,30] for a 2-deep queue of ~2s commits",
			resp.Header.Get("Retry-After"))
	}
}

// ceilSeconds clamps to the range a Retry-After header is useful in.
func TestCeilSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1}, {-time.Second, 1}, {time.Millisecond, 1}, {time.Second, 1},
		{1500 * time.Millisecond, 2}, {29*time.Second + 1, 30}, {time.Hour, 30},
	}
	for _, c := range cases {
		if got := ceilSeconds(c.d); got != c.want {
			t.Errorf("ceilSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// Draining flips /readyz without degrading anything else.
func TestDrainingReadiness(t *testing.T) {
	s, ts, _, _ := faultyServer(t, nil)
	var h Health
	if status := get(t, ts, "/readyz", &h); status != 200 || !h.Ready {
		t.Fatalf("fresh server not ready: status %d %+v", status, h)
	}
	s.SetDraining(true)
	if status := get(t, ts, "/readyz", &h); status != http.StatusServiceUnavailable || !h.Draining {
		t.Fatalf("draining server still ready: status %d %+v", status, h)
	}
	if status, _ := postUpdates(t, ts, "", []jsonUpdate{{Coords: []int{0, 0}, Delta: 1}}); status != 200 {
		t.Fatalf("draining server must still serve stragglers: status %d", status)
	}
	s.SetDraining(false)
	if status := get(t, ts, "/readyz", &h); status != 200 {
		t.Fatalf("undrained server not ready again: status %d", status)
	}
}
