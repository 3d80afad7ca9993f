package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/ingest"
	"rangecube/internal/ndarray"
	"rangecube/internal/wal"
)

// replicaSeedFlag reproduces the randomized replication tests: the fixed
// default pins the historical workload, failures log the seed.
var replicaSeedFlag = flag.Int64("seed", 23, "base seed for randomized replication tests")

// TestBalancerSeededDeterminism pins the load-balancer to the seeded-RNG
// convention: equal seeds replay the identical leader/follower assignment
// sequence (so a -seed run is reproducible end to end), different seeds
// diverge, and the zero seed falls back to a fixed default rather than
// wall-clock or global randomness.
func TestBalancerSeededDeterminism(t *testing.T) {
	seq := func(seed uint64, n, k int) []int {
		b := newBalancer(seed)
		out := make([]int, k)
		for i := range out {
			out[i] = b.pick(n)
		}
		return out
	}
	a, b := seq(41, 3, 200), seq(41, 3, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equal seeds diverge at pick %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 3 {
			t.Fatalf("pick %d out of range: %d", i, a[i])
		}
	}
	c := seq(42, 3, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 41 and 42 produced identical 200-pick sequences")
	}
	d, e := seq(0, 3, 50), seq(0, 3, 50)
	for i := range d {
		if d[i] != e[i] {
			t.Fatalf("zero-seed default is not deterministic at pick %d", i)
		}
	}
	// The rotation must reach every slot, leader included.
	hit := map[int]bool{}
	for _, v := range a {
		hit[v] = true
	}
	if len(hit) != 3 {
		t.Fatalf("200 picks over 3 slots reached only %v", hit)
	}
}

// replicaTestServer builds a sharded durable server with followers over a
// small 2-d cube, returning the server and its naive mirror.
func replicaTestServer(t *testing.T, shards, followers int, compactEvery int) (*Server, *ndarray.Array[int64]) {
	t.Helper()
	dims := []*cube.Dimension{
		cube.NewIntDimension("x", 0, 7),
		cube.NewIntDimension("y", 0, 5),
	}
	c := cube.New(dims...)
	rng := rand.New(rand.NewSource(*replicaSeedFlag))
	for i := range c.Data().Data() {
		c.Data().Data()[i] = int64(rng.Intn(50))
	}
	mirror := c.Data().Clone()
	dir := t.TempDir()
	s, err := NewWithOptions(c, Options{
		BlockSize:    2,
		Fanout:       2,
		WALPath:      filepath.Join(dir, "updates.wal"),
		SnapshotPath: filepath.Join(dir, "cube.snap"),
		CompactEvery: compactEvery,
		Shards:       shards,
		Followers:    followers,
		BalanceSeed:  uint64(*replicaSeedFlag),
		CacheSize:    16,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, mirror
}

// waitSynced blocks until every follower has applied everything committed
// (bounded; the pumps are notified on every commit so this is fast).
func waitSynced(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		committed := s.committed.Load()
		ok := true
		for _, r := range s.followers {
			if r.f.AppliedSeq() < committed {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("followers never caught up to committed seq %d", s.committed.Load())
}

// TestReplicatedShardedServerE2E drives the full replicated serving tier:
// a 2-shard leader with 2 WAL-fed followers, interleaving durable update
// batches with /query/batch reads balanced across leader and followers.
// Every answer must match the naive mirror exactly — across compaction
// boundaries, where the WAL is reset under the replicas and the pumps
// re-bootstrap them from the superseding snapshot (generation bump).
func TestReplicatedShardedServerE2E(t *testing.T) {
	s, mirror := replicaTestServer(t, 2, 2, 4) // CompactEvery 4: several resets mid-test
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rng := rand.New(rand.NewSource(*replicaSeedFlag + 1))
	shape := mirror.Shape()

	postBatch := func(regions []ndarray.Region) []int64 {
		t.Helper()
		items := make([]map[string]any, len(regions))
		for i, r := range regions {
			items[i] = map[string]any{"op": "sum", "select": map[string]string{
				"x": fmt.Sprintf("%d..%d", r[0].Lo, r[0].Hi),
				"y": fmt.Sprintf("%d..%d", r[1].Lo, r[1].Hi),
			}}
		}
		payload, _ := json.Marshal(items)
		resp, err := ts.Client().Post(ts.URL+"/query/batch", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d", resp.StatusCode)
		}
		var out struct {
			Results []struct {
				Result *struct {
					Value int64 `json:"value"`
				} `json:"result"`
				Error string `json:"error"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, len(out.Results))
		for i, r := range out.Results {
			if r.Result == nil {
				t.Fatalf("batch item %d failed: %s", i, r.Error)
			}
			vals[i] = r.Result.Value
		}
		return vals
	}
	naive := func(r ndarray.Region) int64 {
		var sum int64
		ndarray.ForEachOffset(mirror, r, func(off int) { sum += mirror.Data()[off] })
		return sum
	}
	randRegion := func() ndarray.Region {
		r := make(ndarray.Region, len(shape))
		for j, e := range shape {
			lo := rng.Intn(e)
			r[j] = ndarray.Range{Lo: lo, Hi: lo + rng.Intn(e-lo)}
		}
		return r
	}

	for round := 0; round < 30; round++ {
		// Commit one durable batch (crossing compaction every 4th round).
		ups := make([]ingest.Update, 1+rng.Intn(4))
		for i := range ups {
			ups[i] = ingest.Update{
				Coords: []int{rng.Intn(shape[0]), rng.Intn(shape[1])},
				Delta:  int64(rng.Intn(21) - 10),
			}
			mirror.Set(mirror.At(ups[i].Coords...)+ups[i].Delta, ups[i].Coords...)
		}
		ack, err := s.SubmitUpdates(ups, true)
		if err != nil {
			t.Fatal(err)
		}
		if res := <-ack; res.Err != nil {
			t.Fatal(res.Err)
		}
		// Let the replicas catch up, then balanced reads must be exact —
		// whichever backend (sharded leader or either follower) serves them.
		waitSynced(t, s)
		regions := []ndarray.Region{randRegion(), randRegion(), randRegion()}
		got := postBatch(regions)
		for i, r := range regions {
			if want := naive(r); got[i] != want {
				t.Fatalf("round %d: sum over %v = %d, want %d", round, r, got[i], want)
			}
		}
	}
	// The replication stream and the gen-bump reboots really ran.
	for _, r := range s.followers {
		if r.f.AppliedSeq() != s.committed.Load() {
			t.Fatalf("follower %d at seq %d, leader committed %d", r.f.ID(), r.f.AppliedSeq(), s.committed.Load())
		}
	}
	if s.walGen.Load() < 2 {
		t.Fatalf("wal generation %d: compaction never bumped it (CompactEvery too large for the workload?)", s.walGen.Load())
	}
}

// TestPickFollowerStalenessGate proves the consistency gate: with the
// pumps frozen, a committed write makes every follower ineligible — every
// balanced read falls back to the leader, never to a stale replica. After
// a manual sync the followers serve again.
func TestPickFollowerStalenessGate(t *testing.T) {
	s, _ := replicaTestServer(t, 1, 2, 1000)
	s.stopPumps() // freeze replication; commits now only advance the leader

	ack, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{0, 0}, Delta: 3}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ack; res.Err != nil {
		t.Fatal(res.Err)
	}
	for i := 0; i < 200; i++ {
		if rep := s.pickFollower(); rep != nil {
			t.Fatalf("pick %d returned follower %d lagging at seq %d (committed %d)",
				i, rep.f.ID(), rep.f.AppliedSeq(), s.committed.Load())
		}
	}
	for _, r := range s.followers {
		s.syncFollower(r)
	}
	served := false
	for i := 0; i < 200 && !served; i++ {
		served = s.pickFollower() != nil
	}
	if !served {
		t.Fatal("no follower picked in 200 tries after sync (balancer starved the replicas)")
	}
}

// TestFollowerNeverAheadOfLeader stops a commit between its fsync and its
// apply — first parked right after the fsync, then queued for a write lock
// this test holds for reading — while the pump's fallback ticker keeps
// firing. The batch's record is whole and durable on disk, past the end
// offset the leader has published, and nothing may read it: the in-process
// follower stays at the leader's committed sequence and a /wal fetch ships
// the published prefix only. A replica that applied the record would answer
// a balanced read at seq 2 and the leader the next one at seq 1.
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
		Followers:    1,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	f := s.followers[0].f

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
	waitSynced(t, s)

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
	// apply, which is why /wal was fetched first); the pump takes neither.
	s.mu.RLock()
	release()
	time.Sleep(3 * replicaPollInterval)
	applied, committed, end := f.AppliedSeq(), s.committed.Load(), s.walEnd.Load()
	s.mu.RUnlock()
	if applied != 1 || committed != 1 || end != published {
		t.Fatalf("with the apply held back the follower reached seq %d, the leader committed %d and published WAL end %d, want 1, 1 and %d", applied, committed, end, published)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitSynced(t, s)
	if got := f.AppliedSeq(); got != 2 {
		t.Fatalf("follower at seq %d once the commit was applied and published, want 2", got)
	}
	if seq, n := fetched(); seq != "2" || n != 2 {
		t.Fatalf("GET /wal after the apply stamped seq %s and shipped %d batches, want seq 2 and 2 batches", seq, n)
	}
}
