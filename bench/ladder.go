package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"rangecube/internal/client"
	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/cube"
	"rangecube/internal/ingest"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
	"rangecube/internal/persist"
	"rangecube/internal/planner"
	"rangecube/internal/server"
	"rangecube/internal/shard"
	"rangecube/internal/wal"
	"rangecube/internal/workload"
)

// perLayer lists the metrics of the traced run; BENCHMARK.json declares the
// same list.
var perLayer = []metricDef{
	{name: "core.prefixsum.build_ns_per_cell", unit: "ns/cell"},
	{name: "core.blocked.build_ns_per_cell", unit: "ns/cell"},
	{name: "core.maxtree.build_ns_per_cell", unit: "ns/cell"},
	{name: "core.prefixsum.sum_ns", unit: "ns"},
	{name: "core.blocked.sum_ns", unit: "ns"},
	{name: "core.blocked.sum_cells", unit: "count", exact: true},
	{name: "core.maxtree.max_ns", unit: "ns"},
	{name: "core.maxtree.max_steps", unit: "count", exact: true},
	{name: "core.batchsum.apply_ns", unit: "ns"},
	{name: "core.batchsum.apply_cells", unit: "count", exact: true},
	{name: "core.batchsum.apply_blocked_ns", unit: "ns"},
	{name: "core.maxtree.update_ns", unit: "ns"},
	{name: "parallel.chunks_per_call", unit: "count"},
	{name: "cube.csv_ns_per_row", unit: "ns/row"},
	{name: "cube.region_ns", unit: "ns"},
	{name: "server.boot_ns_per_cell", unit: "ns/cell"},
	{name: "server.query_ns", unit: "ns"},
	{name: "server.query_allocs", unit: "allocs"},
	{name: "server.batch_ns_per_query", unit: "ns"},
	{name: "server.batch_allocs_per_query", unit: "allocs"},
	{name: "server.update_ns", unit: "ns"},
	{name: "server.update_allocs", unit: "allocs"},
	{name: "http.overhead_ns", unit: "ns"},
	{name: "http.bytes_per_query", unit: "B", exact: true},
	{name: "client.do_overhead_ns", unit: "ns"},
	{name: "ingest.handoff_ns", unit: "ns"},
	{name: "ingest.updates_per_group", unit: "count"},
	{name: "wal.append_ns", unit: "ns"},
	{name: "wal.bytes_per_update", unit: "B", exact: true},
	{name: "wal.writes_per_commit", unit: "count", exact: true},
	{name: "wal.syncs_per_commit", unit: "count", exact: true},
	{name: "wal.scan_ns_per_batch", unit: "ns"},
	{name: "persist.snapshot_write_ns_per_cell", unit: "ns/cell"},
	{name: "persist.snapshot_read_ns_per_cell", unit: "ns/cell"},
	{name: "persist.snapshot_bytes_per_cell", unit: "B/cell", exact: true},
	{name: "shard.router_sum_ns", unit: "ns"},
	{name: "shard.subqueries_per_query", unit: "count", exact: true},
	{name: "shard.remote_sum_ns_per_query", unit: "ns"},
	{name: "shard.remote_apply_ns", unit: "ns"},
	{name: "shard.remote_bytes_per_query", unit: "B", exact: true},
	{name: "shard.state_push_ns_per_cell", unit: "ns/cell"},
	{name: "e2e.stall_ms_per_commit", unit: "ms"},
	{name: "e2e.query_p99_us", unit: "us"},
	{name: "e2e.update_p99_us", unit: "us"},
	{name: "e2e.query_blocked_pct", unit: "%"},
	{name: "loadgen.late_p99_us", unit: "us"},
	{name: "trace.overhead_pct", unit: "%"},
}

// tracedPairs is how many (plain, spanned) pairs of rounds the traced run
// alternates to price its own span recording.
const tracedPairs = 40

// ladder is the traced run: the same generated requests replayed once per
// rung, from a direct kernel call outwards to a loopback HTTP request, each
// call recorded as a span from the benchmark's own code. On-path rungs
// (core, cube, server, http, client) run on the workload's cube and booted
// stack; the layers a workload's requests never reach (ingest, wal, persist,
// shard on the standalone workloads) are timed on a fixed 512×512 corner of
// the same cells, so every workload reports every layer.
type ladder struct {
	cfg    config
	script *script
	st     *stack
	run    *runner
	rec    *recorder
	m      map[string]metricValue
}

func (l *ladder) set(name string, v float64) { put(l.m, perLayer, name, v) }

// med is the median duration in ns of the spans called name.
func (l *ladder) med(name string) float64 { return median(l.rec.durations(name)) }

func (l *ladder) measure(m map[string]metricValue) error {
	l.m = m
	if err := l.rounds(); err != nil {
		return err
	}
	l.run.finalCheck()
	if err := l.served(); err != nil {
		return err
	}
	cells := float64(l.script.cells.Size())
	l.set("server.boot_ns_per_cell", l.med("server.boot")/cells)

	// Everything below runs on structures of its own. The stack and the
	// oracle are released first so that their pages are reused: a fresh page
	// costs 12–40 µs on this kind of box, and scan-large would touch 0.7 GiB
	// of them.
	if err := l.st.close(); err != nil {
		return err
	}
	l.run.oracle = nil
	runtime.GC()
	l.core()
	return l.aux()
}

// rounds runs end-to-end rounds on the booted stack, alternating plain
// rounds with rounds that record a span around every request, and reads the
// counters only a served load moves.
func (l *ladder) rounds() error {
	front := l.st.front.url
	counters := []string{"cube_update_cells_total", "cube_ingest_flushes_total"}
	before := map[string]float64{}
	for _, name := range counters {
		v, err := scrape(front, name)
		if err != nil {
			return err
		}
		before[name] = v
	}
	calls0, chunks0, _ := parallel.Stats()

	for i := 0; i < l.cfg.warmups(); i++ {
		l.run.runRound()
	}
	pairs := tracedPairs
	if l.cfg.quick {
		pairs = 2
	}
	keep := &samples{}
	var plain, spanned []round
	for i := 0; i < pairs; i++ {
		l.run.keep, l.run.rec = keep, nil
		plain = append(plain, l.run.runRound())
		l.run.keep, l.run.rec = nil, l.rec
		spanned = append(spanned, l.run.runRound())
	}
	l.run.keep, l.run.rec = nil, nil

	calls1, chunks1, _ := parallel.Stats()
	delta := map[string]float64{}
	for _, name := range counters {
		v, err := scrape(front, name)
		if err != nil {
			return err
		}
		delta[name] = v - before[name]
	}
	l.set("parallel.chunks_per_call", ratio(float64(chunks1-chunks0), float64(calls1-calls0)))
	l.set("ingest.updates_per_group", ratio(delta["cube_update_cells_total"], delta["cube_ingest_flushes_total"]))

	diagnostics(l.m, plain, keep)
	p50 := func(r round) float64 { return r.queryP50 }
	off, on := quiet(perRound(plain, p50), "lower"), quiet(perRound(spanned, p50), "lower")
	l.set("trace.overhead_pct", 100*(on-off)/off)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// core builds the three structures from the workload's cells and replays
// the script's first queries and update batches as direct kernel calls.
func (l *ladder) core() {
	s, sc := l.cfg.spec, l.script
	cells := float64(sc.cells.Size())
	var ps *prefixsum.IntArray
	var bl *blocked.IntArray
	var mt *maxtree.Tree[int64]
	blCells, mtCells := sc.cells.Clone(), sc.cells.Clone()
	l.rec.time(0, "core", "core.prefixsum.build", "server.boot", func() { ps = prefixsum.BuildInt(sc.cells) })
	l.rec.time(0, "core", "core.blocked.build", "server.boot", func() { bl = blocked.BuildInt(blCells, s.blockSize) })
	l.rec.time(0, "core", "core.maxtree.build", "server.boot", func() { mt = maxtree.Build(mtCells, 4) })
	l.set("core.prefixsum.build_ns_per_cell", l.med("core.prefixsum.build")/cells)
	l.set("core.blocked.build_ns_per_cell", l.med("core.blocked.build")/cells)
	l.set("core.maxtree.build_ns_per_cell", l.med("core.maxtree.build")/cells)
	runtime.GC() // the builds' scratch arrays, before the replay allocates

	var sumCost, maxCost metrics.Counter
	sums, maxes := 0, 0
	facade := cubeOf(sc.cells)
	for i, q := range l.queries() {
		// The cube facade's own work: selectors to a rank-domain region.
		l.rec.span(i, "cube", "cube.region", "server.query", func() error {
			_, err := facade.Region(cube.Between("d0", q.r[0].Lo, q.r[0].Hi), cube.Between("d1", q.r[1].Lo, q.r[1].Hi))
			return err
		})
		if i%4 == 3 { // 3 sums : 1 max, also where the script sends sums only
			maxes++
			l.rec.time(i, "core", "core.maxtree.max", "cube.region", func() { mt.MaxIndex(q.r, &maxCost) })
			continue
		}
		sums++
		l.rec.time(i, "core", "core.prefixsum.sum", "cube.region", func() { ps.Sum(q.r, nil) })
		l.rec.time(i, "core", "core.blocked.sum", "cube.region", func() { bl.Sum(q.r, &sumCost) })
	}
	l.set("cube.region_ns", l.med("cube.region"))
	l.set("core.prefixsum.sum_ns", l.med("core.prefixsum.sum"))
	l.set("core.blocked.sum_ns", l.med("core.blocked.sum"))
	l.set("core.blocked.sum_cells", ratio(float64(sumCost.Cells), float64(sums)))
	l.set("core.maxtree.max_ns", l.med("core.maxtree.max"))
	l.set("core.maxtree.max_steps", ratio(float64(maxCost.Steps), float64(maxes)))

	var applyCost metrics.Counter
	batches := l.updates()
	for i, b := range batches {
		ups := make([]batchsum.IntUpdate, len(b))
		for k, u := range b {
			ups[k] = batchsum.IntUpdate{Coords: u.coords, Delta: u.delta}
		}
		l.rec.time(i, "core", "core.batchsum.apply", "server.update", func() { batchsum.ApplyInt(ps, ups, &applyCost) })
		l.rec.time(i, "core", "core.batchsum.apply_blocked", "server.update", func() { batchsum.ApplyBlockedInt(bl, ups, nil) })
		// As the server does: the tree is reassigned the cells' new values.
		pts := make([]maxtree.PointUpdate[int64], len(b))
		for k, u := range b {
			pts[k] = maxtree.PointUpdate[int64]{Coords: u.coords, Value: bl.Cube().At(u.coords...)}
		}
		l.rec.time(i, "core", "core.maxtree.update", "server.update", func() { mt.BatchUpdate(pts, nil) })
	}
	l.set("core.batchsum.apply_ns", l.med("core.batchsum.apply"))
	l.set("core.batchsum.apply_cells", ratio(float64(applyCost.Total()), float64(len(batches))))
	l.set("core.batchsum.apply_blocked_ns", l.med("core.batchsum.apply_blocked"))
	l.set("core.maxtree.update_ns", l.med("core.maxtree.update"))
}

// queries and updates are what every rung replays.
func (l *ladder) queries() []query    { return l.script.queries[:l.cfg.spec.ladderQueries] }
func (l *ladder) updates() [][]update { return l.script.updates[:l.cfg.spec.ladderUpdates] }

// memWriter is the in-memory recorder the server rung serves into; it is
// reused across calls so the rung's allocation count is the server's own.
type memWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *memWriter) reset() {
	clear(w.hdr)
	w.status = http.StatusOK
	w.body.Reset()
}

// inMemory replays reqs through the front server's handler with no socket,
// one span per request, and returns the heap allocations per request.
func (l *ladder) inMemory(name, parent string, reqs []request) (allocs float64, err error) {
	h := l.st.front.srv.Handler()
	w := &memWriter{hdr: http.Header{}}
	built := make([]*http.Request, len(reqs))
	for i, rq := range reqs {
		var body io.Reader
		if rq.body != nil {
			body = bytes.NewReader(rq.body)
		}
		if built[i], err = http.NewRequest(rq.method, strings.TrimPrefix(rq.url, l.st.front.url), body); err != nil {
			return 0, err
		}
	}
	failed := 0
	m0 := mallocs()
	for i, req := range built {
		w.reset()
		l.rec.time(reqs[i].first, "server", name, parent, func() { h.ServeHTTP(w, req) })
		if w.status != http.StatusOK {
			failed++
		}
	}
	allocs = float64(mallocs()-m0) / float64(len(built))
	l.run.attempted += len(built)
	l.run.failed += failed
	return allocs, nil
}

// wireMeter measures the bytes a server's listener carries for one client,
// less the X-Trace-Id lines of its responses: the server adds one to the ~1%
// of requests its tracer samples, chosen by a crypto-seeded generator, and
// without them bytes per query repeats exactly.
type wireMeter struct {
	ln     *countingListener
	rt     http.RoundTripper
	traces atomic.Int64
}

// meter puts a wireMeter under hc, whose requests go to ln's server.
func meter(hc *http.Client, ln *countingListener) *wireMeter {
	w := &wireMeter{ln: ln, rt: hc.Transport}
	hc.Transport = w
	return w
}

func (w *wireMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := w.rt.RoundTrip(req)
	if err == nil {
		if v := resp.Header.Get("X-Trace-Id"); v != "" {
			w.traces.Add(int64(len("X-Trace-Id: \r\n") + len(v)))
		}
	}
	return resp, err
}

// bytes is the metered count so far; callers take the difference of two.
func (w *wireMeter) bytes() int64 { return w.ln.bytes.Load() - w.traces.Load() }

// served replays the requests against the booted front server: in memory
// through its handler, then over the loopback socket, then through the
// retrying client.
func (l *ladder) served() error {
	s, base := l.cfg.spec, l.st.front.url
	qs := l.queries()
	singles := queryRequests(base, qs, 0, len(qs), 1)
	allocs, err := l.inMemory("server.query", "http.query", singles)
	if err != nil {
		return err
	}
	l.set("server.query_ns", l.med("server.query"))
	l.set("server.query_allocs", allocs)

	batch := s.batch
	if batch == 1 {
		batch = 16
	}
	batches := queryRequests(base, qs, 0, len(qs)/batch*batch, batch)
	if allocs, err = l.inMemory("server.batch", "", batches); err != nil {
		return err
	}
	l.set("server.batch_ns_per_query", l.med("server.batch")/float64(batch))
	l.set("server.batch_allocs_per_query", allocs/float64(batch))

	if allocs, err = l.inMemory("server.update", "http.update", updateRequests(base, l.updates())); err != nil {
		return err
	}
	l.set("server.update_ns", l.med("server.update"))
	l.set("server.update_allocs", allocs)

	// Loopback: one connection, a fixed request ID (a minted one grows a
	// digit with the server's request count, which the slow-disk reader
	// makes differ between runs).
	lc := newLoadClient()
	defer lc.close()
	wire := meter(lc.hc, l.st.front.ln)
	lc.rid = "ladder"
	lc.do(&singles[0]) // opens the connection
	wire0 := wire.bytes()
	for i := range singles {
		rq := &singles[i]
		t0 := time.Now()
		status, err := lc.do(rq)
		l.rec.add(rq.first, "http", "http.query", "", t0, time.Now())
		l.run.attempted++
		if err != nil || status != http.StatusOK {
			l.run.failed++
		}
	}
	l.set("http.overhead_ns", l.med("http.query")-l.med("server.query"))
	l.set("http.bytes_per_query", float64(wire.bytes()-wire0)/float64(len(singles)))

	// The retrying client against a bare http.Client on the same URLs.
	bare := newLoadClient()
	defer bare.close()
	cl := client.New(client.Options{HTTPClient: bare.hc})
	for i := range singles {
		rq := &singles[i]
		// Both per request, so that drift hits both alike, and in
		// alternating order, because the second finds the data in cache.
		order := []string{"client.bare", "client.do"}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, how := range order {
			err := l.rec.span(rq.first, "client", how, "", func() error {
				var resp *http.Response
				var err error
				if how == "client.do" {
					resp, err = cl.Do(context.Background(), http.MethodGet, rq.url, nil)
				} else {
					resp, err = bare.hc.Get(rq.url)
				}
				if err != nil {
					return err
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("GET %s: %s", rq.url, resp.Status)
				}
				return err
			})
			l.run.attempted++
			if err != nil {
				l.run.failed++
			}
		}
	}
	l.set("client.do_overhead_ns", l.med("client.do")-l.med("client.bare"))
	return nil
}

// auxSide is the side of the cell corner the off-path layers are timed on.
func (l *ladder) auxSide() int {
	if l.cfg.quick {
		return 128
	}
	return 512
}

// aux times the layers on a fixed corner of the cells, with requests drawn
// from the run's seed: CSV load, ingest hand-off, WAL append and scan,
// snapshot codec, and the shard router, remote engine and state push.
func (l *ladder) aux() error {
	a := l.auxSide()
	cells := ndarray.New[int64](a, a)
	for i := 0; i < a; i++ {
		for j := 0; j < a; j++ {
			cells.Set(l.script.cells.At(i, j), i, j)
		}
	}
	g := workload.New(l.cfg.seed + 1)
	for _, step := range []func(*ndarray.Array[int64], *workload.Gen) error{l.auxCSV, l.auxIngest, l.auxWAL, l.auxSnapshot, l.auxShard} {
		if err := step(cells, g); err != nil {
			return err
		}
	}
	return nil
}

// reps is how often a whole-structure operation is timed; the median is kept.
const reps = 5

func (l *ladder) auxCSV(cells *ndarray.Array[int64], _ *workload.Gen) error {
	csv := cellsCSV(cells, cells.Shape()[0])
	for i := 0; i < reps; i++ {
		err := l.rec.span(i, "cube", "cube.csv", "server.boot", func() error {
			_, _, err := cube.InferCSV(bytes.NewReader(csv), "revenue")
			return err
		})
		if err != nil {
			return err
		}
	}
	l.set("cube.csv_ns_per_row", l.med("cube.csv")/float64(cells.Size()))
	return nil
}

// auxIngest times a sync submission through the group-commit batcher whose
// commit does nothing, so what is left is the hand-off.
func (l *ladder) auxIngest(*ndarray.Array[int64], *workload.Gen) error {
	bat := ingest.New(ingest.Options{QueueSize: 256, Commit: func(context.Context, [][]ingest.Update) (uint64, error) { return 0, nil }})
	defer bat.Stop()
	one := []ingest.Update{{Coords: []int{0, 0}, Delta: 1}}
	for i := 0; i < 2000; i++ {
		err := l.rec.span(i, "ingest", "ingest.handoff", "server.update", func() error {
			ack, _, err := bat.Submit(one, true)
			if err != nil {
				return err
			}
			return (<-ack).Err
		})
		if err != nil {
			return err
		}
	}
	l.set("ingest.handoff_ns", l.med("ingest.handoff"))
	return nil
}

// appends is how many 16-delta batches the WAL and remote-apply rungs send.
const appends = 200

// auxWAL times 16-delta appends on the delay-free disk, then recovery scans.
func (l *ladder) auxWAL(cells *ndarray.Array[int64], g *workload.Gen) error {
	dir := filepath.Join(filepath.Dir(l.st.dir), "ladder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := &disk{}
	walPath := filepath.Join(dir, "ladder.wal")
	log, _, err := wal.OpenFile(walPath, d.open)
	if err != nil {
		return err
	}
	size0, writes0, syncs0 := log.Size(), d.writes.Load(), d.syncs.Load()
	for i := 0; i < appends; i++ {
		b := wal.Batch{Seq: uint64(i + 1)}
		for _, u := range g.Updates(cells.Shape(), 16, 100) {
			b.Updates = append(b.Updates, wal.Update{Coords: u.Coords, Delta: u.Delta})
		}
		if err := l.rec.span(i, "wal", "wal.append", "server.update", func() error { return log.Append(b) }); err != nil {
			log.Close()
			return err
		}
	}
	l.set("wal.append_ns", l.med("wal.append"))
	l.set("wal.bytes_per_update", float64(log.Size()-size0)/(appends*16))
	l.set("wal.writes_per_commit", float64(d.writes.Load()-writes0)/appends)
	l.set("wal.syncs_per_commit", float64(d.syncs.Load()-syncs0)/appends)
	if err := log.Close(); err != nil {
		return err
	}
	logBytes, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	for i := 0; i < reps; i++ {
		err := l.rec.span(i, "wal", "wal.scan", "server.boot", func() error {
			batches, _, err := wal.Scan(bytes.NewReader(logBytes))
			if err == nil && len(batches) != appends {
				err = fmt.Errorf("WAL scan found %d of %d batches", len(batches), appends)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	l.set("wal.scan_ns_per_batch", l.med("wal.scan")/appends)
	return nil
}

// auxSnapshot times the snapshot codec to and from memory: the disk is not a
// layer.
func (l *ladder) auxSnapshot(cells *ndarray.Array[int64], _ *workload.Gen) error {
	size := float64(cells.Size())
	var snap bytes.Buffer
	for i := 0; i < reps; i++ {
		snap.Reset()
		if err := l.rec.span(i, "persist", "persist.snapshot_write", "server.update", func() error { return persist.WriteSnapshot(&snap, 1, cells) }); err != nil {
			return err
		}
		err := l.rec.span(i, "persist", "persist.snapshot_read", "server.boot", func() error {
			_, _, err := persist.ReadSnapshot(bytes.NewReader(snap.Bytes()))
			return err
		})
		if err != nil {
			return err
		}
	}
	l.set("persist.snapshot_write_ns_per_cell", l.med("persist.snapshot_write")/size)
	l.set("persist.snapshot_read_ns_per_cell", l.med("persist.snapshot_read")/size)
	l.set("persist.snapshot_bytes_per_cell", float64(snap.Len())/size)
	return nil
}

// auxShard times the shard router over two in-process engines, then a live
// shard server: state push, batched remote sums, remote apply.
func (l *ladder) auxShard(cells *ndarray.Array[int64], g *workload.Gen) error {
	const remoteBatch = 16
	shape := cells.Shape()
	regions := make([]ndarray.Region, 2000/remoteBatch*remoteBatch)
	for i := range regions {
		regions[i] = g.UniformRegion(shape)
	}
	m, err := shard.NewMap(shape, planner.SplitDimension(shape, nil), 2)
	if err != nil {
		return err
	}
	rt, err := shard.NewRouter(cells.Clone(), m, l.cfg.spec.blockSize, 4, "prefixsum")
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i, r := range regions {
		if err := l.rec.span(i, "shard", "shard.router_sum", "server.query", func() error { _, err := rt.Sum(ctx, r, nil); return err }); err != nil {
			return err
		}
	}
	queries, subqueries, _ := rt.Stats()
	l.set("shard.router_sum_ns", l.med("shard.router_sum"))
	l.set("shard.subqueries_per_query", ratio(float64(subqueries), float64(queries)))

	so := baseOptions(l.cfg.spec)
	so.SumEngine = "prefixsum"
	so.AcceptState, so.AwaitState = true, true
	srv, err := server.NewWithOptions(cube.New(cube.NewIntDimension("d0", 0, 0)), so)
	if err != nil {
		return err
	}
	sh, err := serve(srv)
	if err != nil {
		srv.Close()
		return err
	}
	defer sh.close()
	slab := shard.SlabCopy(cells, m, 0)
	var state bytes.Buffer
	if err := persist.WriteSnapshot(&state, 0, slab); err != nil {
		return err
	}
	lc := newLoadClient()
	defer lc.close()
	wire := meter(lc.hc, sh.ln)
	cl := client.New(client.Options{HTTPClient: lc.hc})
	for i := 0; i < reps; i++ {
		err := l.rec.span(i, "shard", "shard.state_push", "server.boot", func() error {
			resp, err := cl.Do(ctx, http.MethodPost, sh.url+"/state", state.Bytes())
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("POST /state: %s", resp.Status)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	l.set("shard.state_push_ns_per_cell", l.med("shard.state_push")/float64(slab.Size()))

	// No hedging: a request stalled past 100 ms would be sent twice, and
	// the bytes counted here must repeat.
	eng := shard.NewRemoteEngine(0, sh.url, shard.RemoteOptions{Timeout: 10 * time.Second, HedgeAfter: -1, HTTPClient: lc.hc})
	local := m.LocalShape(0)
	for i := range regions {
		regions[i] = g.UniformRegion(local)
	}
	eng.SumBatchFull(ctx, regions[:remoteBatch], nil) // opens the connection
	wire0 := wire.bytes()
	for i := 0; i < len(regions); i += remoteBatch {
		err := l.rec.span(i, "shard", "shard.remote_sum", "server.batch", func() error {
			_, err := eng.SumBatchFull(ctx, regions[i:i+remoteBatch], nil)
			return err
		})
		if err != nil {
			return err
		}
	}
	l.set("shard.remote_sum_ns_per_query", l.med("shard.remote_sum")/remoteBatch)
	l.set("shard.remote_bytes_per_query", float64(wire.bytes()-wire0)/float64(len(regions)))
	for i := 0; i < appends; i++ {
		var ups []batchsum.IntUpdate
		for _, u := range g.Updates(local, 16, 100) {
			ups = append(ups, batchsum.IntUpdate{Coords: u.Coords, Delta: u.Delta})
		}
		if err := l.rec.span(i, "shard", "shard.remote_apply", "server.update", func() error { return eng.Apply(ctx, ups) }); err != nil {
			return err
		}
	}
	l.set("shard.remote_apply_ns", l.med("shard.remote_apply"))
	return nil
}
