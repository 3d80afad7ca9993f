package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rangecube/internal/ingest"
	"rangecube/internal/server"
	"rangecube/internal/workload"
)

// smokeAnswer is the subset of the /query and /query/batch response bodies
// the smoke test asserts against.
type smokeAnswer struct {
	Value    int64  `json:"value"`
	LowerBnd *int64 `json:"lower_bound"`
	UpperBnd *int64 `json:"upper_bound"`
	Partial  bool   `json:"partial"`
	Missing  []int  `json:"missing_shards"`
}

// TestMultiProcessSmoke is the kill-one-shard acceptance run: a leader
// scatter–gathering over real `cubeserver -serve-shard` processes keeps
// serving sums when one process is SIGKILLed mid-workload — every
// partial:true answer's [lo, hi] interval must contain the naive-oracle
// answer — and converges back to exact answers after the process restarts
// on the same address and the resync probe re-pushes its slab.
func TestMultiProcessSmoke(t *testing.T) {
	bin, err := BuildCubeserver(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	var procs []*ShardProc
	var urls []string
	for i := 0; i < shards; i++ {
		p, err := StartShardProc(bin, i, "")
		if err != nil {
			t.Fatal(err)
		}
		defer p.Kill()
		procs = append(procs, p)
		urls = append(urls, p.URL())
	}

	const n = 64
	g := workload.New(97)
	cells := g.UniformCube([]int{n, n}, 1000)
	oracle := append([]int64(nil), cells.Data()...) // naive mirror, row-major
	dir := t.TempDir()
	srv := newBenchServer(n, cells.Data(), server.Options{
		BlockSize: 1, Fanout: 4,
		WALPath:      dir + "/updates.wal",
		SnapshotPath: dir + "/cube.snap",
		CompactEvery: 1 << 30,
		ShardURLs:    urls,
		ShardTimeout: 5 * time.Second,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	oracleSum := func(r0lo, r0hi, r1lo, r1hi int) int64 {
		var s int64
		for i := r0lo; i <= r0hi; i++ {
			for j := r1lo; j <= r1hi; j++ {
				s += oracle[i*n+j]
			}
		}
		return s
	}
	update := func(coords []int, delta int64) {
		ack, err := srv.SubmitUpdates([]ingest.Update{{Coords: coords, Delta: delta}}, true)
		if err != nil {
			t.Fatalf("update %v: %v", coords, err)
		}
		if r := <-ack; r.Err != nil {
			t.Fatalf("update %v: %v", coords, r.Err)
		}
		oracle[coords[0]*n+coords[1]] += delta
	}
	querySum := func(r0lo, r0hi, r1lo, r1hi int) smokeAnswer {
		u := fmt.Sprintf("%s/query?op=sum&d0=%d..%d&d1=%d..%d", ts.URL, r0lo, r0hi, r1lo, r1hi)
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", u, resp.Status, data)
		}
		var ans smokeAnswer
		if err := json.Unmarshal(data, &ans); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
		return ans
	}
	batchSums := func(regions [][4]int) []smokeAnswer {
		items := make([]map[string]any, len(regions))
		for k, r := range regions {
			items[k] = map[string]any{"op": "sum", "select": map[string]string{
				"d0": fmt.Sprintf("%d..%d", r[0], r[1]),
				"d1": fmt.Sprintf("%d..%d", r[2], r[3]),
			}}
		}
		body, _ := json.Marshal(items)
		resp, err := http.Post(ts.URL+"/query/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /query/batch: %s: %s", resp.Status, data)
		}
		var out struct {
			Results []struct {
				Result *smokeAnswer `json:"result"`
				Error  string       `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decoding batch answer: %v", err)
		}
		answers := make([]smokeAnswer, len(regions))
		for k, r := range out.Results {
			if r.Error != "" || r.Result == nil {
				t.Fatalf("batch item %d failed: %s", k, r.Error)
			}
			answers[k] = *r.Result
		}
		return answers
	}
	readyCode := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Phase 1: healthy tier — updates land, sums are exact (never partial)
	// through both the single-query and the batched path.
	for i := 0; i < 8; i++ {
		update([]int{(i * 11) % n, (i * 7) % n}, int64(10+i))
	}
	if c := readyCode(); c != http.StatusOK {
		t.Fatalf("/readyz = %d with all shards up, want 200", c)
	}
	checks := [][4]int{{0, n - 1, 0, n - 1}, {5, 40, 3, 60}, {0, 2, 0, 2}}
	for _, r := range checks {
		ans := querySum(r[0], r[1], r[2], r[3])
		want := oracleSum(r[0], r[1], r[2], r[3])
		if ans.Partial || ans.Value != want {
			t.Fatalf("healthy sum over %v = %d (partial=%v), oracle %d", r, ans.Value, ans.Partial, want)
		}
	}
	for k, ans := range batchSums(checks) {
		if want := oracleSum(checks[k][0], checks[k][1], checks[k][2], checks[k][3]); ans.Partial || ans.Value != want {
			t.Fatalf("healthy batch sum over %v = %d (partial=%v), oracle %d", checks[k], ans.Value, ans.Partial, want)
		}
	}

	// Phase 2: SIGKILL shard 1 mid-workload and keep writing — some updates
	// land on the dead slab, so its conservative cell bounds must keep
	// widening for the partial intervals to stay honest.
	procs[1].Kill()
	for i := 0; i < 8; i++ {
		update([]int{(i * 13) % n, (i * 5) % n}, int64(-3-i))
	}
	assertPartialContains := func(ans smokeAnswer, r [4]int, path string) {
		want := oracleSum(r[0], r[1], r[2], r[3])
		if !ans.Partial {
			t.Fatalf("%s sum over %v not partial with shard 1 dead", path, r)
		}
		found := false
		for _, m := range ans.Missing {
			if m == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s partial answer missing_shards = %v, want to include 1", path, ans.Missing)
		}
		if ans.LowerBnd == nil || ans.UpperBnd == nil {
			t.Fatalf("%s partial answer carries no bounds: %+v", path, ans)
		}
		if *ans.LowerBnd > want || want > *ans.UpperBnd {
			t.Fatalf("%s partial bounds [%d, %d] do not contain oracle %d over %v",
				path, *ans.LowerBnd, *ans.UpperBnd, want, r)
		}
	}
	// The first query eats the connection failure and marks the shard down;
	// retry until the partial form surfaces (the round trip itself retries
	// and hedges first).
	whole := [4]int{0, n - 1, 0, n - 1}
	var ans smokeAnswer
	deadline := time.Now().Add(10 * time.Second)
	for {
		ans = querySum(whole[0], whole[1], whole[2], whole[3])
		if ans.Partial || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	assertPartialContains(ans, whole, "query")
	for _, a := range batchSums([][4]int{whole}) {
		assertPartialContains(a, whole, "batch")
	}
	if c := readyCode(); c != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with shard 1 down, want 503", c)
	}

	// Phase 3: restart the process on the same address. The resync probe
	// re-pushes the authoritative slab (including every update committed
	// while it was dead); answers must converge back to exact.
	if err := procs[1].Restart(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		ans = querySum(whole[0], whole[1], whole[2], whole[3])
		if !ans.Partial || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if ans.Partial {
		t.Fatalf("answers never converged back to exact after shard 1 restart")
	}
	if want := oracleSum(whole[0], whole[1], whole[2], whole[3]); ans.Value != want {
		t.Fatalf("post-recovery sum = %d, oracle %d", ans.Value, want)
	}
	for _, r := range checks {
		ans := querySum(r[0], r[1], r[2], r[3])
		want := oracleSum(r[0], r[1], r[2], r[3])
		if ans.Partial || ans.Value != want {
			t.Fatalf("post-recovery sum over %v = %d (partial=%v), oracle %d", r, ans.Value, ans.Partial, want)
		}
	}
	if c := readyCode(); c != http.StatusOK {
		t.Fatalf("/readyz = %d after recovery, want 200", c)
	}
}
