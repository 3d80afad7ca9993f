package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
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

// ingestTestServer boots a WAL-only (no snapshot, effectively no
// compaction) server over an 8x8 zero cube with the ingestion pipeline
// enabled, so every committed group stays in the log for post-mortem
// inspection.
func ingestTestServer(t *testing.T, dir string, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	c := cube.New(
		cube.NewIntDimension("x", 0, 7),
		cube.NewIntDimension("y", 0, 7),
	)
	opts := Options{
		BlockSize:    3,
		Fanout:       3,
		WALPath:      filepath.Join(dir, "updates.wal"),
		CompactEvery: 1 << 30,
		IngestQueue:  64,
		Logf:         func(string, ...any) {},
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := NewWithOptions(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

type jsonUpdate struct {
	Coords []int `json:"coords"`
	Delta  int64 `json:"delta"`
}

// postUpdates sends one /update request and decodes the acknowledgment.
func postUpdates(t *testing.T, ts peer, durability string, ups []jsonUpdate) (int, updateResponse) {
	t.Helper()
	payload, err := json.Marshal(map[string]any{"updates": ups})
	if err != nil {
		t.Fatal(err)
	}
	url := urlOf(ts) + "/update"
	if durability != "" {
		url += "?durability=" + durability
	}
	resp, err := ts.Client().Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out updateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && resp.StatusCode < 300 {
		t.Fatalf("decoding /update ack (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// walHeaderLen is the length of the WAL file header, derived rather than
// hardcoded so the tests track the format.
func walHeaderLen(t *testing.T) int {
	t.Helper()
	var buf bytes.Buffer
	if err := wal.WriteHeader(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// recoverFromPrefix writes a byte prefix of a WAL as a fresh log and boots
// a server over a zero 8x8 cube from it, returning the recovered server.
func recoverFromPrefix(t *testing.T, prefix []byte) *Server {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "updates.wal")
	if err := os.WriteFile(path, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	c := cube.New(
		cube.NewIntDimension("x", 0, 7),
		cube.NewIntDimension("y", 0, 7),
	)
	s, err := NewWithOptions(c, Options{
		BlockSize:    3,
		Fanout:       3,
		WALPath:      path,
		CompactEvery: 1 << 30,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("recovery boot: %v", err)
	}
	return s
}

// sumBatches folds a WAL batch prefix into an 8x8 oracle array.
func sumBatches(batches []wal.Batch) *ndarray.Array[int64] {
	oracle := ndarray.New[int64](8, 8)
	for _, b := range batches {
		for _, u := range b.Updates {
			oracle.Data()[oracle.Offset(u.Coords...)] += u.Delta
		}
	}
	return oracle
}

// syncGate is a WALOpenFile whose Sync can park one caller at either edge of
// the real fsync: before it (the disk is slow and the batch not yet durable)
// or after it (the batch is durable and nothing has applied it). Arming a
// flag parks the next Sync only.
type syncGate struct {
	before, after atomic.Bool
	parked        chan chan struct{} // a parked Sync hands over the channel that releases it
}

func newSyncGate() *syncGate { return &syncGate{parked: make(chan chan struct{})} }

func (g *syncGate) open(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return gatedFile{File: f, g: g}, nil
}

func (g *syncGate) park(armed *atomic.Bool) {
	if armed.CompareAndSwap(true, false) {
		release := make(chan struct{})
		g.parked <- release
		<-release
	}
}

// awaitPark blocks until a Sync is parked at the gate and returns the func
// that lets it go — idempotent, and also run at cleanup, so a failed
// assertion cannot strand the parked commit under the server's Close.
func (g *syncGate) awaitPark(t *testing.T) func() {
	t.Helper()
	select {
	case ch := <-g.parked:
		var once sync.Once
		release := func() { once.Do(func() { close(ch) }) }
		t.Cleanup(release)
		return release
	case <-time.After(5 * time.Second):
		t.Fatal("no Sync reached the gate")
		return nil
	}
}

type gatedFile struct {
	wal.File
	g *syncGate
}

func (f gatedFile) Sync() error {
	f.g.park(&f.g.before)
	err := f.File.Sync()
	f.g.park(&f.g.after)
	return err
}

// replicationView is what one read of every surface must agree on.
type replicationView struct {
	sum    int64  // whole-cube sum
	seq    uint64 // last applied batch
	walEnd int64  // end of the log's applied prefix
}

// checkEverySurface reads GET /query, POST /query/batch, GET /wal and GET
// /snapshot (in that order) and fails unless each shows exactly want.
func checkEverySurface(t *testing.T, ts *httptest.Server, stage string, want replicationView) {
	t.Helper()
	var q queryResponse
	if code := get(t, ts, "/query?op=sum", &q); code != http.StatusOK || q.Value != want.sum {
		t.Fatalf("%s: GET /query sum %d (status %d), want %d", stage, q.Value, code, want.sum)
	}
	code, out, raw := postQueryBatch(t, ts, []byte(`[{"op":"sum"}]`))
	if code != http.StatusOK || len(out.Results) != 1 || out.Results[0].Result == nil || out.Results[0].Result.Value != want.sum {
		t.Fatalf("%s: POST /query/batch answered %d %s, want sum %d", stage, code, raw, want.sum)
	}
	stamp := func(path string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s: GET %s: %v", stage, path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET %s: status %d, err %v", stage, path, resp.StatusCode, err)
		}
		if got := resp.Header.Get(hdrSeq); got != strconv.FormatUint(want.seq, 10) {
			t.Fatalf("%s: GET %s stamped seq %s, want %d", stage, path, got, want.seq)
		}
		return body
	}
	batches, n, err := wal.ScanStream(bytes.NewReader(stamp("/wal")))
	if err != nil || uint64(len(batches)) != want.seq || n != want.walEnd-wal.HeaderSize {
		t.Fatalf("%s: GET /wal shipped %d batches in %d clean bytes (%v), want %d in %d", stage, len(batches), n, err, want.seq, want.walEnd-wal.HeaderSize)
	}
	seq, cells, err := persist.ReadSnapshot(bytes.NewReader(stamp("/snapshot")))
	if err != nil || seq != want.seq || naive.SumInt64(cells, ndarray.Reg(0, 7, 0, 7), nil) != want.sum {
		t.Fatalf("%s: GET /snapshot decoded to seq %d (%v), want seq %d summing to %d", stage, seq, err, want.seq, want.sum)
	}
}

// TestIngestReadersDoNotWaitOutDisk parks a sync update inside its WAL fsync
// and reads every surface meanwhile: each must answer at once, with the
// pre-update value, sequence and log end — the commit holds no lock a reader
// takes while it waits for the disk — and once the fsync returns the update
// is acknowledged and the very next read shows it. Compaction gets the same
// treatment: with the log truncation's fsync parked, queries still answer.
func TestIngestReadersDoNotWaitOutDisk(t *testing.T) {
	dir := t.TempDir()
	gate := newSyncGate()
	s, ts := ingestTestServer(t, dir, func(o *Options) {
		o.WALOpenFile = gate.open
		o.SnapshotPath = filepath.Join(dir, "cube.snap")
	})
	t.Cleanup(func() { ts.Close(); s.Close() })
	// A read queued behind the disk fails here, not at the suite's timeout.
	ts.Client().Timeout = 5 * time.Second

	if code, _ := postUpdates(t, ts, "sync", []jsonUpdate{{Coords: []int{1, 1}, Delta: 5}}); code != http.StatusOK {
		t.Fatalf("seed update: status %d", code)
	}
	before := replicationView{sum: 5, seq: 1, walEnd: s.walEnd.Load()}
	checkEverySurface(t, ts, "idle", before)

	gate.before.Store(true)
	acked := make(chan updateResponse, 1)
	go func() {
		code, ack := postUpdates(t, ts, "sync", []jsonUpdate{{Coords: []int{2, 2}, Delta: 7}})
		if code != http.StatusOK {
			t.Errorf("parked update: status %d", code)
		}
		acked <- ack
	}()
	release := gate.awaitPark(t)
	checkEverySurface(t, ts, "update parked in fsync", before)
	select {
	case ack := <-acked:
		t.Fatalf("update acknowledged (%+v) before its fsync returned", ack)
	default:
	}
	release()
	if ack := <-acked; ack.Seq != 2 {
		t.Fatalf("released update acked %+v, want seq 2", ack)
	}
	after := replicationView{sum: 12, seq: 2, walEnd: s.walEnd.Load()}
	if after.walEnd <= before.walEnd {
		t.Fatalf("published WAL end %d did not move past %d with the commit", after.walEnd, before.walEnd)
	}
	checkEverySurface(t, ts, "update acknowledged", after)

	// Compaction: the snapshot is written and the log truncated, and the
	// truncation's fsync is parked — under the commit mutex alone.
	gate.before.Store(true)
	compacted := make(chan error, 1)
	go func() { compacted <- s.Checkpoint() }()
	release = gate.awaitPark(t)
	var q queryResponse
	if code := get(t, ts, "/query?op=sum", &q); code != http.StatusOK || q.Value != after.sum {
		t.Fatalf("compaction parked in fsync: GET /query sum %d (status %d), want %d", q.Value, code, after.sum)
	}
	release()
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	base, offs, end := s.walBase, len(s.walOffs), s.walEnd.Load()
	s.mu.RUnlock()
	if base != 2 || offs != 0 || end != wal.HeaderSize {
		t.Fatalf("after compaction: WAL starts after seq %d with %d records ending at %d, want after 2 with none at the header (%d)", base, offs, end, wal.HeaderSize)
	}
}

// TestIngestSyncCrashAtEveryOffset drives concurrent sync-mode writers
// through the pipeline, then simulates a crash at every byte offset of the
// resulting WAL. The §5 contract for sync acks: the acknowledged sequence
// numbers form a gapless prefix 1..Seq(), every crash artifact scans to an
// exact batch prefix (a seq gap after sync acks is a failure), and full-file
// recovery loses nothing that was acknowledged.
func TestIngestSyncCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s, ts := ingestTestServer(t, dir, nil)

	const writers, posts = 6, 8
	var (
		mu    sync.Mutex
		acked []uint64
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for p := 0; p < posts; p++ {
				ups := make([]jsonUpdate, rng.Intn(3)+1)
				for i := range ups {
					// Deltas strictly positive: no group can coalesce to
					// zero, so every post lands in a committed batch.
					ups[i] = jsonUpdate{
						Coords: []int{rng.Intn(8), rng.Intn(8)},
						Delta:  int64(rng.Intn(20) + 1),
					}
				}
				code, ack := postUpdates(t, ts, "", ups)
				if code != http.StatusOK {
					t.Errorf("writer %d post %d: status %d", w, p, code)
					return
				}
				if ack.Seq == 0 || ack.Durability != "sync" {
					t.Errorf("writer %d post %d: ack %+v", w, p, ack)
					return
				}
				mu.Lock()
				acked = append(acked, ack.Seq)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	maxSeq := s.Seq()
	// Group commit means several writers share a sequence number, but the
	// acked set must still cover 1..maxSeq with no gaps: every committed
	// batch carried at least one sync writer who was told its number.
	seen := make(map[uint64]bool, len(acked))
	for _, q := range acked {
		if q == 0 || q > maxSeq {
			t.Fatalf("acked seq %d outside 1..%d", q, maxSeq)
		}
		seen[q] = true
	}
	for q := uint64(1); q <= maxSeq; q++ {
		if !seen[q] {
			t.Fatalf("seq %d committed but never acknowledged (gap in sync acks)", q)
		}
	}

	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "updates.wal"))
	if err != nil {
		t.Fatal(err)
	}
	fullBatches, valid, err := wal.Scan(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if valid != int64(len(full)) {
		t.Fatalf("clean shutdown left a torn tail: valid %d of %d bytes", valid, len(full))
	}
	if uint64(len(fullBatches)) != maxSeq {
		t.Fatalf("log holds %d batches, server committed %d", len(fullBatches), maxSeq)
	}
	for i, b := range fullBatches {
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d has seq %d: the log is not gapless", i, b.Seq)
		}
	}

	// Crash at every byte offset: the committed prefix — and only it — must
	// survive. A recovered batch list that is not an exact prefix would be
	// a seq gap, which sync acks forbid.
	for limit := walHeaderLen(t); limit <= len(full); limit++ {
		got, _, err := wal.Scan(bytes.NewReader(full[:limit]))
		if err != nil {
			t.Fatalf("crash at byte %d: scan failed: %v", limit, err)
		}
		if len(got) > 0 && !reflect.DeepEqual(got, fullBatches[:len(got)]) {
			t.Fatalf("crash at byte %d: recovered batches are not a prefix", limit)
		}
	}

	// Boot real recoveries at a few representative crash points and check
	// the recovered state cell-for-cell against the committed prefix. The
	// full-file boot is the acceptance bar: zero acked-update loss.
	for _, limit := range []int{len(full) / 3, 2 * len(full) / 3, len(full)} {
		committed, _, err := wal.Scan(bytes.NewReader(full[:limit]))
		if err != nil {
			t.Fatal(err)
		}
		s2 := recoverFromPrefix(t, full[:limit])
		if got, want := s2.Seq(), uint64(len(committed)); got != want {
			t.Fatalf("crash at byte %d: recovered seq %d, want %d", limit, got, want)
		}
		ts2 := httptest.NewServer(s2.Handler())
		oracle := sumBatches(committed)
		var out queryResponse
		if code := get(t, ts2, "/query?op=sum&x=0..7&y=0..7", &out); code != http.StatusOK {
			t.Fatalf("crash at byte %d: recovery query status %d", limit, code)
		}
		if want := naive.SumInt64(oracle, ndarray.Reg(0, 7, 0, 7), nil); out.Value != want {
			t.Fatalf("crash at byte %d: recovered sum %d, committed prefix says %d", limit, out.Value, want)
		}
		ts2.Close()
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		if limit == len(full) && uint64(len(committed)) != maxSeq {
			t.Fatalf("full-file recovery lost batches: %d of %d", len(committed), maxSeq)
		}
	}
}

// TestIngestCrashBetweenFsyncAndApply crashes in the window the
// durable-then-apply order opens: the commit's fsync has returned and the
// write lock has not been taken, so the batch is on disk and in no
// structure. The disk image of that instant — snapshot plus log tail — must
// boot to a server that includes the batch: an update is never acknowledged
// from this window, but recovery may not lose it either, or a crash one
// instruction later (after the apply) would recover to a different state.
func TestIngestCrashBetweenFsyncAndApply(t *testing.T) {
	dir := t.TempDir()
	gate := newSyncGate()
	walPath, snapPath := filepath.Join(dir, "updates.wal"), filepath.Join(dir, "cube.snap")
	s, ts := ingestTestServer(t, dir, func(o *Options) {
		o.WALOpenFile = gate.open
		o.SnapshotPath = snapPath
	})
	t.Cleanup(func() { ts.Close(); s.Close() })

	// Four batches with a compaction after the second, so the image is a
	// snapshot at seq 2 and a two-record log before the crashing commit.
	for i := 0; i < 4; i++ {
		if code, _ := postUpdates(t, ts, "sync", []jsonUpdate{{Coords: []int{i, i}, Delta: int64(i + 1)}}); code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
		if i == 1 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	gate.after.Store(true)
	acked := make(chan updateResponse, 1)
	go func() {
		_, ack := postUpdates(t, ts, "sync", []jsonUpdate{{Coords: []int{7, 7}, Delta: 100}})
		acked <- ack
	}()
	release := gate.awaitPark(t)
	if got := s.Seq(); got != 4 {
		t.Fatalf("seq %d with the commit parked after its fsync, want 4: the batch was applied before it was durable", got)
	}
	image := map[string][]byte{}
	for _, p := range []string{walPath, snapPath} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		image[filepath.Base(p)] = b
	}
	release()
	if ack := <-acked; ack.Seq != 5 {
		t.Fatalf("released update acked %+v, want seq 5", ack)
	}

	dir2 := t.TempDir()
	for name, b := range image {
		if err := os.WriteFile(filepath.Join(dir2, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := NewWithOptions(cube.New(cube.NewIntDimension("x", 0, 7), cube.NewIntDimension("y", 0, 7)), Options{
		BlockSize:    3,
		Fanout:       3,
		WALPath:      filepath.Join(dir2, "updates.wal"),
		SnapshotPath: filepath.Join(dir2, "cube.snap"),
		CompactEvery: 1 << 30,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("booting the crash image: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	if got := s2.Seq(); got != 5 {
		t.Fatalf("crash image recovered to seq %d, want 5: the durable, unapplied batch was not replayed", got)
	}
	var q queryResponse
	if code := get(t, ts2, "/query?op=sum", &q); code != http.StatusOK || q.Value != 1+2+3+4+100 {
		t.Fatalf("crash image sums to %d (status %d), want %d", q.Value, code, 1+2+3+4+100)
	}
}

// TestIngestAsyncCrashLosesOnlyTail pins the async contract: acks at
// enqueue mean a crash between the ack and the group fsync may lose those
// updates — but only as a FIFO tail, never a gap. A later sync ack is a
// barrier: everything enqueued before it must be in the log.
func TestIngestAsyncCrashLosesOnlyTail(t *testing.T) {
	dir := t.TempDir()
	s, ts := ingestTestServer(t, dir, nil)

	// Distinct cells per update so coalescing cannot merge them and the
	// flattened log reads back as the exact submission order.
	const K = 30
	submitted := make([]jsonUpdate, K)
	for i := 0; i < K; i++ {
		submitted[i] = jsonUpdate{Coords: []int{i / 8, i % 8}, Delta: int64(i + 1)}
		code, ack := postUpdates(t, ts, "async", []jsonUpdate{submitted[i]})
		if code != http.StatusAccepted {
			t.Fatalf("async post %d: status %d, want 202", i, code)
		}
		if !ack.Enqueued || ack.Durability != "async" || ack.Seq != 0 {
			t.Fatalf("async post %d: ack %+v", i, ack)
		}
	}
	// The sync barrier: its 200 promises every earlier async submission
	// committed (single FIFO queue, groups flushed in order).
	barrier := jsonUpdate{Coords: []int{7, 7}, Delta: 1000}
	code, ack := postUpdates(t, ts, "sync", []jsonUpdate{barrier})
	if code != http.StatusOK || ack.Seq == 0 {
		t.Fatalf("sync barrier: status %d ack %+v", code, ack)
	}

	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "updates.wal"))
	if err != nil {
		t.Fatal(err)
	}
	fullBatches, _, err := wal.Scan(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	var flat []wal.Update
	for _, b := range fullBatches {
		flat = append(flat, b.Updates...)
	}
	want := append(append([]jsonUpdate(nil), submitted...), barrier)
	if len(flat) != len(want) {
		t.Fatalf("log holds %d updates, submitted %d: async updates lost despite sync barrier", len(flat), len(want))
	}
	for i, u := range flat {
		if !reflect.DeepEqual(u.Coords, want[i].Coords) || u.Delta != want[i].Delta {
			t.Fatalf("log position %d is %v%+d, submitted order says %v%+d",
				i, u.Coords, u.Delta, want[i].Coords, want[i].Delta)
		}
	}

	// Crash at every byte offset: whatever survives must be a prefix of
	// the submission order — the loss is only ever the most recent tail.
	for limit := walHeaderLen(t); limit <= len(full); limit++ {
		got, _, err := wal.Scan(bytes.NewReader(full[:limit]))
		if err != nil {
			t.Fatalf("crash at byte %d: %v", limit, err)
		}
		n := 0
		for _, b := range got {
			for _, u := range b.Updates {
				if !reflect.DeepEqual(u.Coords, want[n].Coords) || u.Delta != want[n].Delta {
					t.Fatalf("crash at byte %d: survivor %d is not the next submission in FIFO order", limit, n)
				}
				n++
			}
		}
	}

	// A mid-log crash boot: the recovered cube equals the committed prefix
	// and nothing else — the lost updates are exactly the async tail that
	// was acked at enqueue but not yet fsynced.
	limit := len(full) * 2 / 3
	committed, _, err := wal.Scan(bytes.NewReader(full[:limit]))
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) == len(fullBatches) {
		t.Skip("crash point landed after the last fsync; nothing async to lose")
	}
	s2 := recoverFromPrefix(t, full[:limit])
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	oracle := sumBatches(committed)
	var out queryResponse
	if code := get(t, ts2, "/query?op=sum&x=0..7&y=0..7", &out); code != http.StatusOK {
		t.Fatalf("recovery query status %d", code)
	}
	if wantSum := naive.SumInt64(oracle, ndarray.Reg(0, 7, 0, 7), nil); out.Value != wantSum {
		t.Fatalf("recovered sum %d, committed prefix says %d", out.Value, wantSum)
	}
}

// TestIngestDuplicateCoordsRacingQueries is the pipeline flavor of the e2e
// race test: writers deliberately hammer a tiny coordinate pool (so groups
// are full of duplicate cells the §5 coalescer must merge), half of them
// async, while query workers race the flushes. After a sync barrier the
// structures must agree with an order-independent oracle; then the server
// is crashed and recovered and must agree again.
func TestIngestDuplicateCoordsRacingQueries(t *testing.T) {
	const (
		updaters         = 4
		postsPer         = 20
		queryWorkers     = 3
		queriesPerWorker = 30
	)
	dir := t.TempDir()
	s, ts := ingestTestServer(t, dir, func(o *Options) { o.IngestQueue = 128 })

	// A 3x3 coordinate pool guarantees heavy duplication within groups.
	pool := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}}

	applied := make([][]jsonUpdate, updaters)
	var wg sync.WaitGroup
	for g := 0; g < updaters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + g)))
			durability := "sync"
			if g%2 == 1 {
				durability = "async"
			}
			for p := 0; p < postsPer; p++ {
				batch := make([]jsonUpdate, rng.Intn(4)+1)
				for i := range batch {
					batch[i] = jsonUpdate{
						Coords: pool[rng.Intn(len(pool))],
						Delta:  int64(rng.Intn(41) - 20), // zeros and cancellations welcome
					}
				}
				code, _ := postUpdates(t, ts, durability, batch)
				if code == http.StatusTooManyRequests {
					p-- // backpressure; retry
					continue
				}
				wantCode := http.StatusOK
				if durability == "async" {
					wantCode = http.StatusAccepted
				}
				if code != wantCode {
					t.Errorf("updater %d post %d: status %d, want %d", g, p, code, wantCode)
					return
				}
				applied[g] = append(applied[g], batch...)
			}
		}(g)
	}
	for q := 0; q < queryWorkers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(800 + q)))
			ops := []string{"sum", "max", "min", "avg", "count"}
			for i := 0; i < queriesPerWorker; i++ {
				xlo, ylo := rng.Intn(8), rng.Intn(8)
				xhi := xlo + rng.Intn(8-xlo)
				yhi := ylo + rng.Intn(8-ylo)
				path := fmt.Sprintf("/query?op=%s&x=%d..%d&y=%d..%d", ops[i%len(ops)], xlo, xhi, ylo, yhi)
				var out queryResponse
				if code := get(t, ts, path, &out); code != http.StatusOK {
					t.Errorf("query worker %d: %s -> status %d", q, path, code)
					return
				}
				if out.Volume != (xhi-xlo+1)*(yhi-ylo+1) {
					t.Errorf("query worker %d: %s -> volume %d", q, path, out.Volume)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Sync barrier: once it acks, every async post before it has committed.
	if code, _ := postUpdates(t, ts, "sync", []jsonUpdate{{Coords: []int{7, 7}, Delta: 0}}); code != http.StatusOK {
		t.Fatalf("sync barrier: status %d", code)
	}

	oracle := ndarray.New[int64](8, 8)
	for _, batch := range applied {
		for _, u := range batch {
			oracle.Data()[oracle.Offset(u.Coords...)] += u.Delta
		}
	}
	probes := []ndarray.Region{
		ndarray.Reg(0, 7, 0, 7),
		ndarray.Reg(0, 2, 0, 2), // the duplicated pool
		ndarray.Reg(1, 1, 1, 1),
		ndarray.Reg(2, 6, 1, 5), // unaligned against BlockSize 3
	}
	check := func(stage string) {
		t.Helper()
		for _, r := range probes {
			sel := fmt.Sprintf("x=%d..%d&y=%d..%d", r[0].Lo, r[0].Hi, r[1].Lo, r[1].Hi)
			var out queryResponse
			if code := get(t, ts, "/query?op=sum&"+sel, &out); code != http.StatusOK {
				t.Fatalf("%s: sum %s -> status %d", stage, sel, code)
			}
			if want := naive.SumInt64(oracle, r, nil); out.Value != want {
				t.Fatalf("%s: sum over %v = %d, oracle says %d", stage, r, out.Value, want)
			}
			if code := get(t, ts, "/query?op=max&"+sel, &out); code != http.StatusOK {
				t.Fatalf("%s: max %s -> status %d", stage, sel, code)
			}
			if _, want, ok := naive.Max(oracle, r, nil); !ok || out.Value != want {
				t.Fatalf("%s: max over %v = %d, oracle says %d", stage, r, out.Value, want)
			}
		}
	}
	check("after barrier")

	// Crash and recover: the coalesced WAL batches must replay to the same
	// state the oracle predicts from the raw (uncoalesced) submissions.
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "updates.wal"))
	if err != nil {
		t.Fatal(err)
	}
	s2 := recoverFromPrefix(t, full)
	ts = httptest.NewServer(s2.Handler())
	defer ts.Close()
	defer s2.Close()
	check("after recovery")
}

// TestIngestZeroDeltaSkips pins the all-zero fast path: a group whose
// coalesced deltas are all zero must not bump the sequence and not write to
// the WAL.
func TestIngestZeroDeltaSkips(t *testing.T) {
	t.Run("pipeline", func(t *testing.T) {
		dir := t.TempDir()
		s, ts := ingestTestServer(t, dir, nil)
		defer ts.Close()
		defer s.Close()

		// Establish state.
		if code, _ := postUpdates(t, ts, "", []jsonUpdate{{Coords: []int{1, 1}, Delta: 5}}); code != http.StatusOK {
			t.Fatalf("seed update: status %d", code)
		}
		const q = "/query?op=sum&x=0..3&y=0..3"
		var out queryResponse
		seqBefore := s.Seq()
		walSize, err := os.Stat(filepath.Join(dir, "updates.wal"))
		if err != nil {
			t.Fatal(err)
		}

		// Explicit zeros and exact cancellations both coalesce to nothing.
		for _, ups := range [][]jsonUpdate{
			{{Coords: []int{2, 2}, Delta: 0}, {Coords: []int{3, 3}, Delta: 0}},
			{{Coords: []int{2, 2}, Delta: 7}, {Coords: []int{2, 2}, Delta: -7}},
		} {
			code, ack := postUpdates(t, ts, "sync", ups)
			if code != http.StatusOK {
				t.Fatalf("zero-delta update: status %d", code)
			}
			if ack.Seq != seqBefore {
				t.Fatalf("zero-delta update acked seq %d, want unchanged %d", ack.Seq, seqBefore)
			}
		}
		if got := s.Seq(); got != seqBefore {
			t.Fatalf("sequence bumped to %d by all-zero groups", got)
		}
		after, err := os.Stat(filepath.Join(dir, "updates.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if after.Size() != walSize.Size() {
			t.Fatalf("WAL grew %d -> %d bytes on all-zero groups", walSize.Size(), after.Size())
		}
		if code := get(t, ts, q, &out); code != http.StatusOK || out.Value != 5 {
			t.Fatalf("sum after all-zero groups = %d (status %d), want 5", out.Value, code)
		}

		// A real delta still commits.
		if code, _ := postUpdates(t, ts, "", []jsonUpdate{{Coords: []int{1, 1}, Delta: 3}}); code != http.StatusOK {
			t.Fatal("live update failed")
		}
		if s.Seq() != seqBefore+1 {
			t.Fatalf("live update did not bump seq: %d", s.Seq())
		}
		if code := get(t, ts, q, &out); code != http.StatusOK {
			t.Fatalf("sum after live update: status %d", code)
		}
		if out.Value != 8 {
			t.Fatalf("sum after updates = %d, want 8", out.Value)
		}
	})
}

// TestIngestSubmitRejectsBadCoords: SubmitUpdates checks coordinates as
// /update does. A submission naming a cell outside the cube (out of range,
// or of the wrong rank) returns an error and commits none of its updates —
// unchecked, it panicked in the commit path, on the pipeline's flusher
// goroutine, killing the process and every writer's update queued with it —
// and a valid submission after it is acked.
func TestIngestSubmitRejectsBadCoords(t *testing.T) {
	t.Run("pipeline", func(t *testing.T) {
		s, ts := ingestTestServer(t, t.TempDir(), nil)
		defer ts.Close()
		defer s.Close()
		for _, bad := range [][]ingest.Update{
			{{Coords: []int{1, 1}, Delta: 1}, {Coords: []int{8, 0}, Delta: 1}},
			{{Coords: []int{0, -1}, Delta: 1}},
			{{Coords: []int{1}, Delta: 1}},
		} {
			if _, err := s.SubmitUpdates(bad, true); err == nil {
				t.Fatalf("SubmitUpdates(%v) accepted, want an error", bad)
			}
		}
		ack, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{7, 7}, Delta: 4}}, true)
		if err != nil {
			t.Fatal(err)
		}
		if res := <-ack; res.Err != nil || res.Seq != 1 {
			t.Fatalf("valid submission after the bad ones: seq %d, err %v; want seq 1", res.Seq, res.Err)
		}
		var out queryResponse
		if code := get(t, ts, "/query?op=sum", &out); code != http.StatusOK || out.Value != 4 {
			t.Fatalf("whole-cube sum = %d (status %d), want 4: only the valid submission applied", out.Value, code)
		}
	})
}
