package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rangecube/internal/core/maxtree"
	"rangecube/internal/cube"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/server"
	"rangecube/internal/shard"
	"rangecube/internal/workload"
)

var update = flag.Bool("update", false, "rewrite COUNTS.txt from this run")

// countsFile is the golden count ledger, beside cubebench_output.txt.
const countsFile = "../../COUNTS.txt"

// TestCountLedger runs a seeded, fixed script through the structures a server
// runs and through its HTTP handler, and compares every counted quantity with
// COUNTS.txt line by line: §8's accesses per sum, max and min, allocations
// and bytes per request, WAL bytes per commit and shard exchanges per batch
// and per commit. No row reads a clock, so the file is the same on every box,
// at every GOMAXPROCS and under -race (which skips the allocation rows). A
// change that moves a count fails here until the file is re-taken with
// `go test ./cmd/cubebench -run TestCountLedger -update`, and review sees the
// diff.
func TestCountLedger(t *testing.T) {
	var l ledger
	routerRows(t, &l)
	argmaxRows(t, &l)
	edgeMixRows(t, &l)
	handlerRows(t, &l)
	tierRows(t, &l)
	loadRows(&l)
	repairRows(&l)
	got := l.String()

	if *update {
		if err := os.WriteFile(countsFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countsFile)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, wantRows := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if raceEnabled {
		gotRows, wantRows = dropAllocRows(gotRows), dropAllocRows(wantRows)
	}
	for i := range min(len(gotRows), len(wantRows)) {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("COUNTS.txt line %d:\n got %q\nwant %q", i+1, gotRows[i], wantRows[i])
		}
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("the ledger has %d rows, COUNTS.txt %d", len(gotRows), len(wantRows))
	}
}

// ledger is the rows of COUNTS.txt: one (path, shape, b, metric) per line.
type ledger struct{ rows []string }

func (l *ledger) add(path, shape, b, metric, value string) {
	l.rows = append(l.rows, fmt.Sprintf("%-17s %-11s b=%-2s %-22s %s", path, shape, b, metric, value))
}

func (l *ledger) String() string { return strings.Join(l.rows, "\n") + "\n" }

// perOp formats a total over n operations as a per-operation mean.
func perOp(total int64, n int) string {
	return strconv.FormatFloat(float64(total)/float64(n), 'f', 2, 64)
}

func dropAllocRows(rows []string) []string {
	var out []string
	for _, r := range rows {
		if !strings.Contains(r, " allocs") {
			out = append(out, r)
		}
	}
	return out
}

func shapeName(shape []int) string {
	parts := make([]string, len(shape))
	for j, n := range shape {
		parts[j] = strconv.Itoa(n)
	}
	return strings.Join(parts, "x")
}

// regionsPerKind is how many seeded regions each (shape, kind) row averages.
const regionsPerKind = 16

// regionKind is one kind of seeded query region and its draws.
type regionKind struct {
	name    string
	regions []ndarray.Region
}

// regionKinds draws the point, slab and large regions of a shape: a single
// cell; every dimension whole but the first, a quarter of it; three quarters
// of every dimension.
func regionKinds(g *workload.Gen, shape []int) []regionKind {
	side := func(f func(n int) int) []int {
		s := make([]int, len(shape))
		for j, n := range shape {
			s[j] = max(f(n), 1)
		}
		return s
	}
	slab := side(func(n int) int { return n })
	slab[0] = max(shape[0]/4, 1)
	kinds := []struct {
		name  string
		sides []int
	}{
		{"point", side(func(int) int { return 1 })},
		{"slab", slab},
		{"large", side(func(n int) int { return n * 3 / 4 })},
	}
	out := make([]regionKind, len(kinds))
	for k, kd := range kinds {
		out[k].name = kd.name
		for range regionsPerKind {
			out[k].regions = append(out[k].regions, g.FixedSizeRegion(shape, kd.sides))
		}
	}
	return out
}

// routerRows counts sums at d = 1..4 and b = 1, 4, 32 (32 only where every
// extent is at least 2b), and max and min at fanout 4, through a one-shard
// shard.NewRouter: the structure set a server answers from, edge arrays
// included. Each (shape, b) also records the bytes per cube cell of every
// structure the router holds.
func routerRows(t *testing.T, l *ledger) {
	ctx := context.Background()
	for d, shape := range [][]int{{4096}, {256, 256}, {64, 64, 64}, {16, 16, 16, 16}} {
		g := workload.New(int64(100 + d))
		a := g.UniformCube(shape, 1000)
		kinds := regionKinds(g, shape)
		name := shapeName(shape)
		for _, b := range []int{1, 4, 32} {
			if slices.Min(shape) < 2*b {
				continue
			}
			rt := newRouter(t, a, b)
			bytes := rt.StructureBytes()
			for _, st := range []string{"cells", "blocked", "edges", "maxtree", "mintree"} {
				l.add("router.bytes", name, strconv.Itoa(b), st+" bytes/cell", strconv.FormatFloat(float64(bytes[st])/float64(a.Size()), 'f', 4, 64))
			}
			for _, k := range kinds {
				var c metrics.Counter
				for _, r := range k.regions {
					if _, err := rt.Sum(ctx, r, &c); err != nil {
						t.Fatal(err)
					}
				}
				path := "router.sum"
				l.add(path, name, strconv.Itoa(b), k.name+" cells/sum", perOp(c.Cells, regionsPerKind))
				l.add(path, name, strconv.Itoa(b), k.name+" aux/sum", perOp(c.Aux, regionsPerKind))
				l.add(path, name, strconv.Itoa(b), k.name+" steps/sum", perOp(c.Steps, regionsPerKind))
			}
		}
		// The trees do not depend on b.
		rt := newRouter(t, a, 1)
		for _, op := range []string{"max", "min"} {
			for _, k := range kinds {
				var c metrics.Counter
				for _, r := range k.regions {
					if _, _, _, err := rt.Extreme(ctx, r, op == "min", &c); err != nil {
						t.Fatal(err)
					}
				}
				path := "router." + op
				l.add(path, name, "-", k.name+" cells/"+op, perOp(c.Cells, regionsPerKind))
				l.add(path, name, "-", k.name+" aux/"+op, perOp(c.Aux, regionsPerKind))
				l.add(path, name, "-", k.name+" steps/"+op, perOp(c.Steps, regionsPerKind))
			}
		}
	}
}

// argmaxRows digests which cell answers a max and a min: FNV-64a over the
// (offset, value) answers to 256 seeded regions of a tie-heavy cube (cells in
// [0, 3]) at fanout 4. Ties resolve to the first cell of a tree level's walk,
// so a change to the order in which a level is built moves the digest.
func argmaxRows(t *testing.T, l *ledger) {
	const regions = 256
	ctx := context.Background()
	for d, shape := range [][]int{{4096}, {256, 256}, {64, 64, 64}, {16, 16, 16, 16}} {
		g := workload.New(int64(200 + d))
		a := g.UniformCube(shape, 4)
		rt := newRouter(t, a, 1)
		for _, op := range []string{"max", "min"} {
			h := fnv.New64a()
			var buf [16]byte
			for range regions {
				at, v, ok, err := rt.Extreme(ctx, g.UniformRegion(shape), op == "min", nil)
				if err != nil || !ok {
					t.Fatalf("%s over %v: ok=%v err=%v", op, shape, ok, err)
				}
				binary.LittleEndian.PutUint64(buf[:8], uint64(a.Offset(at...)))
				binary.LittleEndian.PutUint64(buf[8:], uint64(v))
				h.Write(buf[:])
			}
			l.add("router."+op, shapeName(shape), "-", "argmax fnv64a", fmt.Sprintf("%016x", h.Sum64()))
		}
	}
}

func newRouter(t *testing.T, a *ndarray.Array[int64], b int) *shard.Router {
	t.Helper()
	m, err := shard.NewMap(a.Shape(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter(a.Clone(), m, b, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// edgeMixRows is TestEdgeArraysCutAccesses's mix through the router: 256 sums
// over a 1024² cube at b = 32, sides drawn from n/16..n/2 per dimension.
// accesses/sum is the figure §4.2's per-dimension plan is judged by.
func edgeMixRows(t *testing.T, l *ledger) {
	const n, b, sums = 1024, 32, 16 * 16
	g := workload.New(41)
	shape := []int{n, n}
	rt := newRouter(t, g.UniformCube(shape, 1000), b)
	sides := []int{n / 16, n / 8, n / 4, n / 2}
	var c metrics.Counter
	for i := 0; i < sums; i++ {
		r := g.FixedSizeRegion(shape, []int{sides[i%4], sides[i/4%4]})
		if _, err := rt.Sum(context.Background(), r, &c); err != nil {
			t.Fatal(err)
		}
	}
	name, bs := shapeName(shape), strconv.Itoa(b)
	l.add("router.sum", name, bs, "mix accesses/sum", strconv.FormatInt(c.Total()/sums, 10))
	l.add("router.sum", name, bs, "mix cells/sum", perOp(c.Cells, sums))
	l.add("router.sum", name, bs, "mix aux/sum", perOp(c.Aux, sums))
	l.add("router.sum", name, bs, "mix steps/sum", perOp(c.Steps, sums))
}

// ledgerServer is a 32×32 server with a WAL. Tracing is off, so no row
// depends on the sampler's random draw; the cube is small enough that a
// 16-item batch stays under the worker pool's grain and never forks, so no
// row depends on GOMAXPROCS.
func ledgerServer(t *testing.T, opts server.Options) *server.Server {
	t.Helper()
	c := cube.New(cube.NewIntDimension("x", 0, 31), cube.NewIntDimension("y", 0, 31))
	copy(c.Data().Data(), workload.New(7).UniformCube([]int{32, 32}, 1000).Data())
	opts.BlockSize, opts.Fanout, opts.TraceSample = 1, 4, -1
	opts.Logf = func(string, ...any) {}
	s, err := server.NewWithOptions(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// ledgerQuery is the GET /query the handler rows answer.
const ledgerQuery = "/query?op=sum&x=3..28&y=5..17"

// ledgerBatch is a 16-item POST /query/batch body: sums, avgs, maxes and
// mins over seeded regions of the 32×32 cube.
func ledgerBatch() []byte {
	g := workload.New(11)
	ops := []string{"sum", "avg", "max", "min"}
	items := make([]map[string]any, 16)
	for i := range items {
		r := g.UniformRegion([]int{32, 32})
		items[i] = map[string]any{"op": ops[i%4], "select": map[string]string{
			"x": fmt.Sprintf("%d..%d", r[0].Lo, r[0].Hi),
			"y": fmt.Sprintf("%d..%d", r[1].Lo, r[1].Hi),
		}}
	}
	body, _ := json.Marshal(items)
	return body
}

// ledgerUpdate is a 16-delta POST /update body over seeded cells.
func ledgerUpdate() []byte {
	type up struct {
		Coords []int `json:"coords"`
		Delta  int64 `json:"delta"`
	}
	var req struct {
		Updates []up `json:"updates"`
	}
	for _, u := range workload.New(13).Updates([]int{32, 32}, 16, 100) {
		req.Updates = append(req.Updates, up{u.Coords, u.Delta})
	}
	body, _ := json.Marshal(req)
	return body
}

// clockFields are the /update answer's nanosecond stamps; their digits are
// the only bytes of an answer that a clock decides.
var clockFields = regexp.MustCompile(`"(enqueued_unix_ns|queue_wait_ns|commit_ns)":-?[0-9]+`)

// serve runs one request through h and returns the recorded answer.
func serve(t *testing.T, h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, target, w.Code, w.Body)
	}
	return w
}

// handlerRows counts through server.Handler: allocations and answer bytes
// of GET /query, a 16-item POST /query/batch and a 16-delta POST /update, and
// the WAL bytes of that update's commit.
func handlerRows(t *testing.T, l *ledger) {
	walPath := filepath.Join(t.TempDir(), "u.wal")
	s := ledgerServer(t, server.Options{WALPath: walPath})
	h := s.Handler()
	batch, upd := ledgerBatch(), ledgerUpdate()
	reqs := []struct {
		name, method, target string
		body                 []byte
	}{
		{"GET /query", http.MethodGet, ledgerQuery, nil},
		{"POST /query/batch", http.MethodPost, "/query/batch", batch},
		{"POST /update", http.MethodPost, "/update", upd},
	}
	const shape = "32x32"
	for _, rq := range reqs {
		before := walSize(t, walPath)
		w := serve(t, h, rq.method, rq.target, rq.body)
		body := clockFields.ReplaceAllStringFunc(w.Body.String(), func(f string) string {
			return f[:strings.IndexByte(f, ':')+1]
		})
		l.add(rq.name, shape, "1", "answer bytes", strconv.Itoa(len(body)))
		if rq.target == "/update" {
			l.add(rq.name, shape, "1", "wal bytes/commit", strconv.FormatInt(walSize(t, walPath)-before, 10))
		}
	}
	if raceEnabled {
		return // the race runtime allocates on its own account
	}
	for _, rq := range reqs {
		const runs = 50
		ws := make([]*httptest.ResponseRecorder, runs+1)
		rs := make([]*http.Request, runs+1)
		for i := range rs {
			ws[i] = httptest.NewRecorder()
			rs[i] = httptest.NewRequest(rq.method, rq.target, bytes.NewReader(rq.body))
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			h.ServeHTTP(ws[i], rs[i])
			i++
		})
		if w := ws[0]; w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", rq.name, w.Code, w.Body)
		}
		l.add(rq.name, shape, "1", "allocs", strconv.FormatFloat(allocs, 'f', 0, 64))
	}
}

// loadRows counts the allocations of one cube.InferCSV load of a 64×64 grid
// rendered as bench/ renders its cells: the header d0,d1,revenue and one
// record per cell; then of reading back a snapshot of the loaded cells, as a
// boot, a /state push and a follower's bootstrap read one.
func loadRows(l *ledger) {
	if raceEnabled {
		return // the race runtime allocates on its own account
	}
	const side = 64
	var b strings.Builder
	b.WriteString("d0,d1,revenue\n")
	for i := range side {
		for j := range side {
			fmt.Fprintf(&b, "%d,%d,%d\n", i, j, (i*7919+j*104729)%1000-500)
		}
	}
	data := b.String()
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := cube.InferCSV(strings.NewReader(data), "revenue"); err != nil {
			panic(err)
		}
	})
	l.add("cube.InferCSV", "64x64", "-", "allocs/load", strconv.FormatFloat(allocs, 'f', 0, 64))

	c, _, err := cube.InferCSV(strings.NewReader(data), "revenue")
	var snap bytes.Buffer
	if err == nil {
		err = persist.WriteSnapshot(&snap, 1, c.Data())
	}
	if err != nil {
		panic(err)
	}
	allocs = testing.AllocsPerRun(5, func() {
		if _, _, err := persist.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
			panic(err)
		}
	})
	l.add("persist.ReadSnapshot", "64x64", "-", "allocs/read", strconv.FormatFloat(allocs, 'f', 0, 64))
	allocs = testing.AllocsPerRun(5, func() {
		snap.Reset()
		if err := persist.WriteSnapshot(&snap, 1, c.Data()); err != nil {
			panic(err)
		}
	})
	l.add("persist.WriteSnapshot", "64x64", "-", "allocs/write", strconv.FormatFloat(allocs, 'f', 0, 64))

	// What a leader allocates to push a shard its slab: the body, encoded
	// from the cube's runs, and the slab's value bounds, here for shard 1 of
	// two split along y, a run per row.
	a := workload.New(17).UniformCube([]int{256, 256}, 1000)
	slab := ndarray.Region{{Lo: 0, Hi: 255}, {Lo: 128, Hi: 255}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const pushes = 5
	for range pushes {
		persist.EncodeSnapshot(1, a, slab)
		shard.ValueBounds(a, slab)
	}
	runtime.ReadMemStats(&after)
	perCell := float64(after.TotalAlloc-before.TotalAlloc) / pushes / float64(slab.Volume())
	l.add("leader slab push", "256x256", "-", "B/pushed cell", strconv.FormatFloat(perCell, 'f', 2, 64))
}

// repairRows counts the allocations of one §7 repair of 64 cells on a
// 256×256 max tree of fanout 4: the cells written and then handed to
// Repair, alternately set and restored, so every run repairs the same tree;
// then of a BatchUpdate of 64 points on it, and of one §6 query.
func repairRows(l *ledger) {
	if raceEnabled {
		return // the race runtime allocates on its own account
	}
	shape := []int{256, 256}
	g := workload.New(17)
	a := g.UniformCube(shape, 1000)
	tr := maxtree.Build(a, 4)
	var batches [2][]maxtree.CellChange[int64]
	for _, u := range g.Updates(shape, 64, 500) {
		off := a.Offset(u.Coords...)
		if slices.ContainsFunc(batches[0], func(c maxtree.CellChange[int64]) bool { return c.Off == off }) {
			continue
		}
		old, new := a.Data()[off], a.Data()[off]+u.Delta
		batches[0] = append(batches[0], maxtree.CellChange[int64]{Off: off, Old: old, New: new})
		batches[1] = append(batches[1], maxtree.CellChange[int64]{Off: off, Old: new, New: old})
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		b := batches[i%2]
		for _, c := range b {
			a.Data()[c.Off] = c.New
		}
		tr.Repair(b, nil)
		i++
	})
	l.add("maxtree.Repair", "256x256", "-", fmt.Sprintf("allocs/%d cells", len(batches[0])), strconv.FormatFloat(allocs, 'f', 0, 64))

	// The library's §7 entry on the same tree: 64 point updates, some naming
	// a cell twice, alternately set and restored.
	var sets [2][]maxtree.PointUpdate[int64]
	for _, u := range g.Updates(shape, 64, 500) {
		sets[0] = append(sets[0], maxtree.PointUpdate[int64]{Coords: u.Coords, Value: a.At(u.Coords...) + u.Delta})
		sets[1] = append(sets[1], maxtree.PointUpdate[int64]{Coords: u.Coords, Value: a.At(u.Coords...)})
	}
	i = 0
	allocs = testing.AllocsPerRun(20, func() {
		tr.BatchUpdate(sets[i%2], nil)
		i++
	})
	l.add("maxtree.BatchUpdate", "256x256", "-", fmt.Sprintf("allocs/%d cells", len(sets[0])), strconv.FormatFloat(allocs, 'f', 0, 64))

	// A §6 query as a server asks it, under a context that can be canceled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	regions := make([]ndarray.Region, 64)
	for k := range regions {
		regions[k] = g.UniformRegion(shape)
	}
	i = 0
	allocs = testing.AllocsPerRun(200, func() {
		tr.MaxIndexContext(ctx, regions[i%len(regions)], nil)
		i++
	})
	l.add("maxtree.MaxIndex", "256x256", "-", "allocs/query", strconv.FormatFloat(allocs, 'f', 0, 64))
}

func walSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// tierRows counts the exchanges a leader has with two in-process shards: one
// per touched shard for a client batch, one per shard for a commit (an
// empty record when the commit misses its slab), and one per shard for the
// commits queued while a delivery was parked. A commit is delivered after its
// ack, so each count is taken after a read through the leader, which waits
// for the delivery.
func tierRows(t *testing.T, l *ledger) {
	var mu sync.Mutex
	seen := map[string]int{}
	var park, parked chan struct{} // shard 1's next /shard/apply signals parked and waits for park
	var urls []string
	for i := range 2 {
		sh, err := server.NewWithOptions(cube.New(cube.NewIntDimension("d0", 0, 0)), server.Options{
			BlockSize: 1, Fanout: 4, AcceptState: true, TraceSample: -1,
			Logf: func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		inner := sh.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[r.URL.Path]++
			var hold chan struct{}
			if i == 1 && r.URL.Path == "/shard/apply" && park != nil {
				hold = park
				close(parked)
				park, parked = nil, nil
			}
			mu.Unlock()
			if hold != nil {
				<-hold
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(func() { ts.Close(); sh.Close() })
		urls = append(urls, ts.URL)
	}
	// The deadline is far above any in-process exchange, so no hedge fires.
	leader := ledgerServer(t, server.Options{ShardURLs: urls, ShardTimeout: 20 * time.Second})
	h := leader.Handler()
	exchanges := func(route string, do func()) string {
		mu.Lock()
		before := seen[route]
		mu.Unlock()
		do()
		mu.Lock()
		defer mu.Unlock()
		return strconv.Itoa(seen[route] - before)
	}
	batch, upd := ledgerBatch(), ledgerUpdate()
	l.add("tier batch", "32x32", "1", "shard exchanges/batch", exchanges("/shard/query", func() {
		serve(t, h, http.MethodPost, "/query/batch", batch)
	}))
	l.add("tier commit", "32x32", "1", "shard exchanges/commit", exchanges("/shard/apply", func() {
		serve(t, h, http.MethodPost, "/update", upd)
		serve(t, h, http.MethodGet, "/query?op=sum", nil)
	}))
	// Shard 1 holds the record of the first of 8 commits until all 8 are
	// acked; records 2–8 then reach each shard in one body.
	release, arrived := make(chan struct{}), make(chan struct{})
	mu.Lock()
	park, parked = release, arrived
	mu.Unlock()
	l.add("tier 8 commits", "32x32", "1", "exchanges/8, 1 parked", exchanges("/shard/apply", func() {
		serve(t, h, http.MethodPost, "/update", upd)
		<-arrived
		for range 7 {
			serve(t, h, http.MethodPost, "/update", upd)
		}
		close(release)
		serve(t, h, http.MethodGet, "/query?op=sum", nil)
	}))
}
