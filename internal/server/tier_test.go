package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/ingest"
	"rangecube/internal/ndarray"
)

// tierSpec says what newTier boots. In the leader's Options, and a
// follower's, a zero BlockSize or Fanout means 3 and a nil Logf discards.
type tierSpec struct {
	cube    *cube.Cube                               // the leader's cells; nil means tierCube()
	opts    Options                                  // the leader's; newTier sets ShardURLs
	shards  int                                      // shard servers behind the leader, at hosts shard0, shard1, …
	durable bool                                     // a WAL and a snapshot in t.TempDir(), compacted only by Checkpoint
	hook    func(host string, r *http.Request) fault // the wire's
}

// tier is a leader, its shard servers and a follower, every one dialing its
// peers through one wire, which the tests' own requests ride too.
type tier struct {
	t        *testing.T
	w        *wire
	leader   *node
	shards   []*node
	follower *node
	oracle   *ndarray.Array[int64] // the leader's cells, kept by commit
}

// node is one server of a tier and the host it answers at.
type node struct {
	*Server
	URL string
	w   *wire
}

func (n *node) Client() *http.Client { return n.w.client }

// tierCube is a 10×8 cube of cells in −20..40; split in two along x, shard 0
// owns x 0..4 and shard 1 x 5..9.
func tierCube() *cube.Cube {
	c := cube.New(cube.NewIntDimension("x", 0, 9), cube.NewIntDimension("y", 0, 7))
	for x := 0; x < 10; x++ {
		for y := 0; y < 8; y++ {
			c.Data().Set(int64((x*37+y*11)%61-20), x, y)
		}
	}
	return c
}

func withTierDefaults(o Options) Options {
	if o.BlockSize == 0 {
		o.BlockSize = 3
	}
	if o.Fanout == 0 {
		o.Fanout = 3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

func newTier(t *testing.T, spec tierSpec) *tier {
	t.Helper()
	tr := &tier{t: t, w: newWire(spec.hook)}
	c := spec.cube
	if c == nil {
		c = tierCube()
	}
	tr.oracle = c.Data().Clone()
	opts := withTierDefaults(spec.opts)
	for i := range spec.shards {
		n := tr.bootShard("shard" + strconv.Itoa(i))
		tr.shards = append(tr.shards, n)
		opts.ShardURLs = append(opts.ShardURLs, n.URL)
	}
	if spec.durable {
		dir := t.TempDir()
		opts.WALPath, opts.SnapshotPath, opts.CompactEvery = filepath.Join(dir, "updates.wal"), filepath.Join(dir, "cube.snap"), 1<<30
	}
	tr.leader = tr.boot("leader", c, opts)
	// Cleanups run last first: the wire closes before any server, so a
	// parked exchange returns rather than holding up a Close.
	t.Cleanup(tr.w.close)
	return tr
}

// start serves s at host, in place of whatever served there, and closes it
// when the test ends.
func (tr *tier) start(host string, s *Server) *node {
	tr.w.serve(host, s.Handler())
	tr.t.Cleanup(func() { s.Close() })
	return &node{Server: s, URL: "http://" + host, w: tr.w}
}

// boot builds a server over c dialing through the wire and starts it at host.
func (tr *tier) boot(host string, c *cube.Cube, opts Options) *node {
	tr.t.Helper()
	s, err := newServer(c, opts, "", tr.w.client)
	if err != nil {
		tr.t.Fatal(err)
	}
	return tr.start(host, s)
}

// join starts a follower of the leader at host follower, built by follow:
// joinLeader, bootstrapFollower (no pump) or joinLeaderPanicking.
func (tr *tier) join(follow func(context.Context, string, Options, *http.Client) (*Server, error), opts Options) *node {
	tr.t.Helper()
	f, err := follow(context.Background(), tr.leader.URL, withTierDefaults(opts), tr.w.client)
	if err != nil {
		tr.t.Fatal(err)
	}
	tr.follower = tr.start("follower", f)
	return tr.follower
}

// bootShard starts a shard server, awaiting its first state push, at host.
func (tr *tier) bootShard(host string) *node {
	return tr.boot(host, cube.New(cube.NewIntDimension("d0", 0, 0)), Options{BlockSize: 2, Fanout: 2, AcceptState: true, Logf: func(string, ...any) {}})
}

// stop takes n's host down and closes its server.
func (tr *tier) stop(n *node) {
	tr.w.serve(n.URL[len("http://"):], nil)
	n.Close()
}

// commit submits one sync update of the cell (x, y) to the leader and adds
// it to the oracle.
func (tr *tier) commit(x, y int, delta int64) {
	tr.t.Helper()
	ack, err := tr.leader.SubmitUpdates([]ingest.Update{{Coords: []int{x, y}, Delta: delta}}, true)
	if err != nil {
		tr.t.Fatal(err)
	}
	if res := <-ack; res.Err != nil {
		tr.t.Fatal(res.Err)
	}
	tr.oracle.Set(tr.oracle.At(x, y)+delta, x, y)
}

func (tr *tier) region(x0, x1, y0, y1 int) ndarray.Region {
	return ndarray.Region{{Lo: x0, Hi: x1}, {Lo: y0, Hi: y1}}
}

// waitFor waits until cond holds, yielding the processor between checks:
// every tier server runs in this process, so what cond waits on is a step
// one of their goroutines is about to take, not a span of time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("gave up waiting for %s", what)
		}
	}
}

// ran wakes l and waits until a run that started after the wake has ended:
// l starts a run only once the one before it has ended, so a second wake's
// run starting means the first wake's run is over.
func ran(t *testing.T, l *loop) {
	t.Helper()
	for range 2 {
		n := l.runs.Load()
		l.wake()
		waitFor(t, l.name+" to run", func() bool { return l.runs.Load() > n })
	}
}

// peer is where a request helper sends: an httptest server, or a node of a
// tier.
type peer interface{ Client() *http.Client }

func urlOf(p peer) string {
	if n, ok := p.(*node); ok {
		return n.URL
	}
	return p.(*httptest.Server).URL
}

// getBody GETs path from p and returns the status and body.
func getBody(t *testing.T, p peer, path string) (int, string) {
	t.Helper()
	resp, err := p.Client().Get(urlOf(p) + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// get GETs path from p and decodes the JSON body into out (nillable).
func get(t *testing.T, p peer, path string, out any) int {
	t.Helper()
	code, body := getBody(t, p, path)
	if out != nil {
		if err := json.Unmarshal([]byte(body), out); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}
	return code
}

// sumOf GETs the query q from p; the answer is decoded when the status is 200.
func sumOf(t *testing.T, p peer, q string) (queryResponse, int) {
	t.Helper()
	var out queryResponse
	code, body := getBody(t, p, q)
	if code == http.StatusOK {
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
	}
	return out, code
}

// postBatch POSTs one /update batch to p and returns the status and body.
func postBatch(t *testing.T, p peer, batch []map[string]any) (int, string) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"updates": batch})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Client().Post(urlOf(p)+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// fetchWAL GETs /wal with the given query string from p.
func fetchWAL(t *testing.T, p peer, query string) *http.Response {
	t.Helper()
	resp, err := p.Client().Get(urlOf(p) + "/wal" + query)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
