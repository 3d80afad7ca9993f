package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rangecube/internal/faultio"
	"rangecube/internal/ingest"
	"rangecube/internal/ndarray"
	"rangecube/internal/server"
	"rangecube/internal/wal"
	"rangecube/internal/workload"
)

// ScaleResult is the machine-readable record of the serving-tier scaling
// experiment, emitted by cubebench -exp scale -json as BENCH_scale.json:
// read throughput of /query/batch under a durable write load, as the cube
// is sharded 1→4 ways and follower replicas absorb a growing share of the
// balanced reads. MonotoneQPS records whether each row of the curve served
// at least as many queries per second as the one before it.
//
// On a small machine the curve is not about CPU parallelism (the worker
// pool may well be a single worker): it measures contention. While every
// durable commit held the leader's write-preferring lock across the WAL
// write+fsync, a steady writer convoyed the leader's readers behind disk
// I/O, follower reads (which need only the replica's read lock) went
// through those stalls, and the curve rose with the follower share. The
// commit now fsyncs before it takes the write lock, so the leader's own
// readers wait out the in-memory apply alone: the rows measure level, and
// MonotoneQPS is an observation, no longer an acceptance bar — what is
// left to compare is whether a follower's extra copy of the structures
// buys anything on one box (ROADMAP item 2, "Then delete").
//
// The commit's disk wait is made deterministic with the faultio slow-disk
// flavor: every WAL write and fsync pays SyncDelayMS of injected latency,
// modeling the durable-commit cost of networked block storage instead of
// whatever this machine's local fsync happens to cost today. That keeps
// the curve about the serving tier's architecture, not the benchmark
// host's disk cache.
type ScaleResult struct {
	Shape       []int      `json:"shape"`
	BatchSize   int        `json:"batch_size"`
	Readers     int        `json:"readers"`
	Writers     int        `json:"writers"`
	SyncDelayMS float64    `json:"sync_delay_ms"`
	Rows        []ScaleRow `json:"rows"`
	// MonotoneQPS covers the in-process rows only: the remote row pays a
	// real loopback-TCP hop per sub-query and is held to its own bar below.
	MonotoneQPS bool `json:"monotone_qps"`
	// RemoteVsLocalQPS compares the process-per-shard row's throughput to
	// the in-process row at the same shard count (remote QPS / local QPS);
	// 0 when the curve carries no remote row. The acceptance bar is ≥ 0.5 —
	// crossing a process boundary per sub-query may not cost more than 2x.
	RemoteVsLocalQPS float64 `json:"remote_vs_local_qps,omitempty"`
}

// ScalePoint is one configuration on the scaling curve. Remote runs the
// shards as separate `cubeserver -serve-shard` processes under the process
// supervisor instead of in-process engines; the leader pushes each its slab
// and scatter–gathers over loopback HTTP.
type ScalePoint struct {
	Shards    int
	Followers int
	Remote    bool
}

// ScaleRow is one (shards, followers) point on the scaling curve.
type ScaleRow struct {
	Shards       int     `json:"shards"`
	Followers    int     `json:"followers"`
	Remote       bool    `json:"remote,omitempty"`
	Queries      int     `json:"queries"`
	Commits      uint64  `json:"commits"`
	TotalNS      int64   `json:"total_ns"`
	QueriesPSec  float64 `json:"queries_per_sec"`
	SpeedupVsOne float64 `json:"speedup_vs_unsharded"`
}

// scaleConfig is one configuration under measurement: a live server plus
// its pre-encoded query script.
type scaleConfig struct {
	shards    int
	followers int
	remote    bool
	srv       *server.Server
	ts        *httptest.Server
	dir       string
	procs     []*ShardProc // process-per-shard children (remote rows only)
	bodies    [][][]byte   // [reader][request] pre-encoded /query/batch payloads
	seq0      uint64
	bestNS    int64
}

func (c *scaleConfig) close() {
	c.ts.Close()
	c.srv.Close()
	for _, p := range c.procs {
		p.Kill()
	}
	os.RemoveAll(c.dir)
}

// Scale measures balanced batch-read throughput for each (shards,
// followers) configuration in curve, on an n×n cube with writers
// committing durable single-cell updates at a fixed tick rate for the
// duration of each read round. The query script is identical across
// configurations (seeded generator), so rows differ only in the serving
// tier's shape.
//
// Measurement discipline (the same one the queries experiment's telemetry
// guard uses): every configuration is built up front, rounds alternate
// across configurations so machine drift (fsync latency, writeback
// pressure, GC) hits all rows rather than poisoning one, writers are
// ticker-paced so every row sees the same commit rate, and each row keeps
// its best round.
func Scale(n int, curve []ScalePoint, readers, writers, perReader, batchSize int) (Table, ScaleResult) {
	g := workload.New(1311)
	cells := g.UniformCube([]int{n, n}, 1000)

	// One shared query script: perReader batches of batchSize regions per
	// reader. Queries are narrow in the split dimension and wide in the
	// other — the §9 planner picks the split dimension precisely because
	// the workload's ranges are short there, so a typical query lands on
	// one slab and scatter–gather adds no fan-out cost to it.
	regions := make([]ndarray.Region, readers*perReader*batchSize)
	for i := range regions {
		regions[i] = g.FixedSizeRegion([]int{n, n}, []int{1 + n/16, n / 2})
	}

	res := ScaleResult{
		Shape:       []int{n, n},
		BatchSize:   batchSize,
		Readers:     readers,
		Writers:     writers,
		SyncDelayMS: float64(scaleSyncDelay) / float64(time.Millisecond),
	}
	tab := Table{
		Title: "Serving-tier scaling: sharded scatter-gather with WAL-fed follower reads",
		Note: fmt.Sprintf("%d readers x %d /query/batch requests of %d sums each, racing %d durable writers; "+
			"each commit appends and fsyncs on a simulated %.2gms-per-op disk (faultio, the networked-storage "+
			"regime) before it takes the write lock, so neither leader nor follower reads wait out the disk; "+
			"rounds alternate across configurations, best round kept; speedup is vs the unsharded "+
			"leader-only row.",
			readers, perReader, batchSize, writers, res.SyncDelayMS),
		Headers: []string{"tier", "shards", "followers", "queries", "commits", "total ms", "queries/s", "speedup"},
	}

	// The remote rows need the real binary: build it once, up front, so the
	// compile never lands inside a timed round.
	bin := ""
	for _, p := range curve {
		if p.Remote {
			dir, err := os.MkdirTemp("", "cubebench-bin-*")
			if err != nil {
				panic(fmt.Sprintf("harness: temp dir: %v", err))
			}
			defer os.RemoveAll(dir)
			if bin, err = BuildCubeserver(dir); err != nil {
				panic(err.Error())
			}
			break
		}
	}

	cfgs := make([]*scaleConfig, len(curve))
	for i, p := range curve {
		cfgs[i] = newScaleConfig(n, cells.Data(), p, bin, readers, perReader, batchSize, regions)
	}
	defer func() {
		for _, c := range cfgs {
			c.close()
		}
	}()

	for r := 0; r < scaleRounds; r++ {
		for _, c := range cfgs {
			t := c.runRound(readers, writers)
			if c.bestNS == 0 || t < c.bestNS {
				c.bestNS = t
			}
		}
	}

	base := 0.0
	res.MonotoneQPS = true
	queries := readers * perReader * batchSize
	lastLocal := -1.0
	localQPS := map[int]float64{} // shard count → in-process QPS
	for i, c := range cfgs {
		row := ScaleRow{
			Shards:      c.shards,
			Followers:   c.followers,
			Remote:      c.remote,
			Queries:     queries,
			Commits:     c.srv.Seq() - c.seq0,
			TotalNS:     c.bestNS,
			QueriesPSec: float64(queries) / (float64(c.bestNS) / 1e9),
		}
		if i == 0 {
			base = row.QueriesPSec
		}
		if base > 0 {
			row.SpeedupVsOne = row.QueriesPSec / base
		}
		if c.remote {
			if lq, ok := localQPS[c.shards]; ok && lq > 0 {
				res.RemoteVsLocalQPS = row.QueriesPSec / lq
			}
		} else {
			if lastLocal >= 0 && row.QueriesPSec < lastLocal {
				res.MonotoneQPS = false
			}
			lastLocal = row.QueriesPSec
			localQPS[c.shards] = row.QueriesPSec
		}
		res.Rows = append(res.Rows, row)
		tier := "local"
		if c.remote {
			tier = "procs"
		}
		tab.Add(tier, row.Shards, row.Followers, row.Queries, row.Commits,
			fmt.Sprintf("%.1f", float64(row.TotalNS)/1e6),
			fmt.Sprintf("%.0f", row.QueriesPSec),
			fmt.Sprintf("%.2fx", row.SpeedupVsOne))
	}
	return tab, res
}

// newScaleConfig boots one configuration: a WAL-backed server (sharded and
// replicated per the point) and the query script pre-encoded per reader, so
// nothing is marshalled inside a timed round. A Remote point first spawns
// its shard processes so the leader's boot can push each its slab.
func newScaleConfig(n int, cells []int64, p ScalePoint, bin string, readers, perReader, batchSize int, regions []ndarray.Region) *scaleConfig {
	dir, err := os.MkdirTemp("", "cubebench-scale-*")
	if err != nil {
		panic(fmt.Sprintf("harness: temp dir: %v", err))
	}
	inj := faultio.NewInjector()
	inj.SetDelay(scaleSyncDelay)
	opts := server.Options{
		BlockSize:    7,
		Fanout:       4,
		WALPath:      filepath.Join(dir, "updates.wal"),
		WALOpenFile:  func(p string) (wal.File, error) { return inj.Open(p) },
		SnapshotPath: filepath.Join(dir, "cube.snap"),
		CompactEvery: 1 << 30, // no compaction mid-measurement
		Shards:       p.Shards,
		Followers:    p.Followers,
		BalanceSeed:  1311,
		SumEngine:    "prefixsum",
	}
	var procs []*ShardProc
	if p.Remote {
		for i := 0; i < p.Shards; i++ {
			sp, err := StartShardProc(bin, i, "")
			if err != nil {
				panic(err.Error())
			}
			procs = append(procs, sp)
			opts.ShardURLs = append(opts.ShardURLs, sp.URL())
		}
		opts.ShardTimeout = 10 * time.Second // the bench measures throughput, not deadlines
	}
	srv := newBenchServer(n, cells, opts)
	c := &scaleConfig{
		shards:    p.Shards,
		followers: p.Followers,
		remote:    p.Remote,
		srv:       srv,
		ts:        httptest.NewServer(srv.Handler()),
		dir:       dir,
		procs:     procs,
		seq0:      srv.Seq(),
	}
	c.bodies = make([][][]byte, readers)
	qi := 0
	for w := range c.bodies {
		c.bodies[w] = make([][]byte, perReader)
		for b := range c.bodies[w] {
			items := make([]map[string]any, batchSize)
			for k := range items {
				r := regions[qi]
				qi++
				items[k] = map[string]any{"op": "sum", "select": map[string]string{
					"d0": fmt.Sprintf("%d..%d", r[0].Lo, r[0].Hi),
					"d1": fmt.Sprintf("%d..%d", r[1].Lo, r[1].Hi),
				}}
			}
			body, err := json.Marshal(items)
			if err != nil {
				panic(fmt.Sprintf("harness: encoding batch: %v", err))
			}
			c.bodies[w][b] = body
		}
	}
	return c
}

// runRound times one pass of the read script against this configuration,
// with the write load running for exactly the duration of the round.
func (c *scaleConfig) runRound(readers, writers int) int64 {
	// The write load is ticker-paced: each writer commits durably (one
	// fsync, then one apply under the leader's write lock) on a fixed
	// clock, so every configuration faces the same commit rate — a
	// free-running writer's rate would float with disk latency and make
	// rows incomparable. The pace leaves room between commits for the
	// replicas to catch up (a tail read plus a one-cell apply, well under
	// the interval), so followers stay eligible for balanced reads through
	// the next commit.
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			tick := time.NewTicker(scalePace)
			defer tick.Stop()
			x, y := w%7, (3*w)%5
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				// Distinct cells so no commit coalesces to nothing.
				ack, err := c.srv.SubmitUpdates([]ingest.Update{{Coords: []int{(x + i) % 7, y}, Delta: 1}}, true)
				if err != nil {
					panic(fmt.Sprintf("harness: scale writer: %v", err))
				}
				if r := <-ack; r.Err != nil {
					panic(fmt.Sprintf("harness: scale commit: %v", r.Err))
				}
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	start := time.Now()
	for w := 0; w < readers; w++ {
		readerWG.Add(1)
		go func(w int) {
			defer readerWG.Done()
			for _, body := range c.bodies[w] {
				resp, err := c.ts.Client().Post(c.ts.URL+"/query/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					panic(fmt.Sprintf("harness: scale read: %v", err))
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					panic(fmt.Sprintf("harness: scale read status %d", resp.StatusCode))
				}
				// Drain so the keep-alive connection is reused; the answers
				// themselves are covered by the conformance suite.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	readerWG.Wait()
	total := time.Since(start).Nanoseconds()
	close(stop)
	writerWG.Wait()
	return total
}

// scaleRounds is how many alternating rounds each configuration's read
// script runs; only the best round is kept. Alternation means drift hits
// every row; best-of discards the rounds a background hiccup poisoned.
const scaleRounds = 5

// scalePace is the writers' commit tick, and scaleSyncDelay the injected
// per-operation latency of the simulated disk the WAL rides (an Append is
// one write plus one fsync, so a commit waits on the disk for about twice
// the delay — a third of every tick, which was the write lock's stall duty
// cycle while the lock was held across the fsync). The pace is slow enough
// that the replicas' catch-up (a tail read plus a one-cell apply, well
// under a millisecond) keeps them eligible for balanced reads through the
// next commit.
const (
	scalePace      = 8 * time.Millisecond
	scaleSyncDelay = 1500 * time.Microsecond
)
