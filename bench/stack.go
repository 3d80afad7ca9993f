package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/ndarray"
	"rangecube/internal/server"
	"rangecube/internal/wal"
)

// disk is the labelled, deterministic disk under every WAL the benchmark
// opens: each write and each fsync costs delay (whole milliseconds, because
// time.Sleep rounds up to about one here) and the real fsync is skipped. The
// data files live in the checkout, on whatever disk that is; an fsync there
// took 0.2–6 ms in sizing runs, which no run could repeat, so the benchmark
// measures the program's I/O pattern and not the host's disk. (Spending the
// delay in a spin on the clock instead of a sleep made the reader's rate
// bimodal, 13k or 18k queries a second: the spinner and the reader share two
// cores.)
type disk struct {
	delay                time.Duration
	writes, syncs, bytes atomic.Int64
}

func (d *disk) wait() {
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
}

func (d *disk) open(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &diskFile{File: f, d: d}, nil
}

type diskFile struct {
	*os.File
	d *disk
}

func (f *diskFile) Write(p []byte) (int, error) {
	f.d.writes.Add(1)
	f.d.bytes.Add(int64(len(p)))
	f.d.wait()
	return f.File.Write(p)
}

func (f *diskFile) Sync() error {
	f.d.syncs.Add(1)
	f.d.wait()
	return nil
}

// countingListener counts the bytes that cross the loopback sockets it
// accepts, for the bytes-per-query metrics.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// Write counts before it writes: the client can have read the response, and
// the benchmark the counter, before a count taken after the write lands.
func (c *countingConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// node is one server of the stack on its own loopback listener.
type node struct {
	srv     *server.Server
	hs      *http.Server
	ln      *countingListener
	url     string
	handler *handlerRef
}

// handlerRef lets close cut the only path from the http.Server to the cube
// server. Connection goroutines outlive hs.Close by an unknown moment and
// hold the handler; while they did, the runtime.GC between two boots left
// the closed server's ~0.6 GiB of structures alive, and the next boot paid
// for fresh pages (0.5 s against 6 s on scan-large).
type handlerRef struct{ h atomic.Pointer[http.Handler] }

func (r *handlerRef) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if h := r.h.Load(); h != nil {
		(*h).ServeHTTP(w, req)
		return
	}
	http.Error(w, "server closed", http.StatusServiceUnavailable)
}

// serve puts srv behind a loopback listener, with the slow-client guards
// cmd/cubeserver sets.
func serve(srv *server.Server) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		srv:     srv,
		ln:      &countingListener{Listener: ln},
		url:     "http://" + ln.Addr().String(),
		handler: &handlerRef{},
	}
	h := srv.Handler()
	n.handler.h.Store(&h)
	n.hs = &http.Server{Handler: n.handler, ReadHeaderTimeout: 5 * time.Second, MaxHeaderBytes: 1 << 20}
	go n.hs.Serve(n.ln) // returns when close calls hs.Close
	return n, nil
}

func (n *node) close() error {
	n.hs.Close()
	n.handler.h.Store(nil)
	err := n.srv.Close()
	n.srv = nil
	return err
}

// stack is one booted serving tier: the server the clients talk to, its
// shard servers when the workload has them, and the disk under its WAL.
type stack struct {
	front  *node
	shards []*node
	disk   *disk
	dir    string
}

// close stops the servers and removes their files; a second call does
// nothing.
func (st *stack) close() error {
	if st.front == nil {
		return nil
	}
	err := st.front.close()
	for _, sh := range st.shards {
		if cerr := sh.close(); err == nil {
			err = cerr
		}
	}
	st.front, st.shards = nil, nil
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// baseOptions mirrors the flag defaults of cmd/cubeserver: a benchmark of
// other settings would measure a server nobody runs.
func baseOptions(s spec) server.Options {
	return server.Options{
		BlockSize:    s.blockSize,
		Fanout:       4,
		SumEngine:    s.sumEngine,
		CompactEvery: 64,
		MaxInflight:  64,
		QueryTimeout: 10 * time.Second,
		IngestQueue:  256,
		Metrics:      true,
		Logf:         func(string, ...any) {},
	}
}

// booter boots the stack of one workload, as often as setup_s needs.
type booter struct {
	spec   spec
	script *script
	csv    []byte // the cells as cubeserver -data would read them
	total  int64  // whole-cube sum the first answer must equal
	dir    string // parent of the per-boot data directories
	tmpl   string // slowDisk: directory holding the snapshot and WAL every boot recovers from
	boots  int
	rec    *recorder // nil unless the run is traced
}

func newBooter(s spec, sc *script, dir string, rec *recorder) *booter {
	b := &booter{spec: s, script: sc, dir: dir, rec: rec}
	for _, v := range sc.cells.Data() {
		b.total += v
	}
	if s.csvBoot {
		b.csv = cellsCSV(sc.cells, s.n)
	}
	return b
}

// cellsCSV renders the top-left side×side corner of the cells as the CSV
// cubeserver loads: one record per cell.
func cellsCSV(cells *ndarray.Array[int64], side int) []byte {
	buf := make([]byte, 0, 16*side*side)
	buf = append(buf, "d0,d1,revenue\n"...)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			buf = strconv.AppendInt(buf, int64(i), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(j), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, cells.At(i, j), 10)
			buf = append(buf, '\n')
		}
	}
	return buf
}

// newCube builds the cube a boot starts from: inferred from the CSV, or on
// scan-large (whose CSV would be 16.7M rows) copied from the cells.
func (b *booter) newCube() (*cube.Cube, error) {
	if b.spec.csvBoot {
		c, _, err := cube.InferCSV(bytes.NewReader(b.csv), "revenue")
		return c, err
	}
	return cubeOf(b.script.cells), nil
}

// cubeOf copies an n×n array into a cube with the integer dimensions d0, d1
// (value == rank), the names the generated selectors use.
func cubeOf(cells *ndarray.Array[int64]) *cube.Cube {
	sh := cells.Shape()
	c := cube.New(cube.NewIntDimension("d0", 0, sh[0]-1), cube.NewIntDimension("d1", 0, sh[1]-1))
	copy(c.Data().Data(), cells.Data())
	return c
}

// prepare writes, once and untimed, the snapshot and 63-batch WAL that every
// slow-disk boot recovers from, and folds those batches into the expected
// total.
func (b *booter) prepare() error {
	if b.spec.stack != slowDisk {
		return nil
	}
	b.tmpl = filepath.Join(b.dir, "template")
	if err := os.MkdirAll(b.tmpl, 0o755); err != nil {
		return err
	}
	opts := baseOptions(b.spec)
	opts.WALPath = filepath.Join(b.tmpl, "updates.wal")
	opts.SnapshotPath = filepath.Join(b.tmpl, "cube.snap")
	opts.WALOpenFile = (&disk{}).open
	srv, err := server.NewWithOptions(cubeOf(b.script.cells), opts)
	if err != nil {
		return err
	}
	for i, batch := range b.script.prep {
		ack, err := srv.SubmitUpdates(ingestUpdates(batch), true)
		if err != nil {
			return err
		}
		if res := <-ack; res.Err != nil {
			return res.Err
		}
		for _, u := range batch {
			b.total += u.delta
		}
		if i == 0 {
			if err := srv.Checkpoint(); err != nil {
				return err
			}
		}
	}
	// Copy the files while the server is idle: its Close below compacts
	// them, and a boot must find the WAL still holding its 63 batches.
	for _, name := range []string{"updates.wal", "cube.snap"} {
		if err := copyFile(filepath.Join(b.tmpl, name), filepath.Join(b.tmpl, "boot-"+name)); err != nil {
			return err
		}
	}
	return srv.Close()
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// boot brings the workload's stack up from cold and returns once the front
// server has given its first correct answer; the duration is setup_s.
func (b *booter) boot() (*stack, time.Duration, error) {
	b.boots++
	st := &stack{dir: filepath.Join(b.dir, fmt.Sprintf("boot-%d", b.boots))}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, 0, err
	}
	opts := baseOptions(b.spec)
	if b.spec.stack != standalone {
		st.disk = &disk{}
		opts.WALPath = filepath.Join(st.dir, "updates.wal")
		opts.WALOpenFile = st.disk.open
	}
	if b.spec.stack == slowDisk {
		st.disk.delay = 2 * time.Millisecond
		opts.SnapshotPath = filepath.Join(st.dir, "cube.snap")
		// No compaction while serving: the snapshot is written past the WAL's
		// file hook, with a real fsync of 8 MiB that took 35–300 ms on the
		// checkout's disk and moved query_qps by 18% between two runs. The
		// boots still recover from a snapshot; the lock hold under
		// measurement is the append and fsync of every commit.
		opts.CompactEvery = 1 << 30
		for _, name := range []string{"updates.wal", "cube.snap"} {
			if err := copyFile(filepath.Join(b.tmpl, "boot-"+name), filepath.Join(st.dir, name)); err != nil {
				return nil, 0, err
			}
		}
	}

	fail := func(err error) (*stack, time.Duration, error) {
		if st.front != nil {
			st.front.close()
		}
		for _, sh := range st.shards {
			sh.close()
		}
		os.RemoveAll(st.dir)
		return nil, 0, err
	}

	t0 := time.Now()
	if b.spec.stack == remoteTier {
		// Shard processes boot a one-cell placeholder and wait for the
		// leader's slab push, as cubeserver -serve-shard does.
		for i := 0; i < 2; i++ {
			so := baseOptions(b.spec)
			so.AcceptState, so.AwaitState = true, true
			srv, err := server.NewWithOptions(cube.New(cube.NewIntDimension("d0", 0, 0)), so)
			if err != nil {
				return fail(err)
			}
			sh, err := serve(srv)
			if err != nil {
				srv.Close()
				return fail(err)
			}
			st.shards = append(st.shards, sh)
			opts.ShardURLs = append(opts.ShardURLs, sh.url)
		}
		// A shard marked down answers partially and would count as failed
		// operations; on a shared box a 2 s stall is rare but not
		// impossible, so the deadline is widened past it.
		opts.ShardTimeout = 10 * time.Second
	}
	var c *cube.Cube
	err := b.rec.span(0, "cube", "cube.load", "setup", func() (err error) {
		c, err = b.newCube()
		return err
	})
	if err != nil {
		return fail(err)
	}
	err = b.rec.span(0, "server", "server.boot", "setup", func() error {
		srv, err := server.NewWithOptions(c, opts)
		if err != nil {
			return err
		}
		st.front, err = serve(srv)
		if err != nil {
			srv.Close()
		}
		return err
	})
	if err != nil {
		return fail(err)
	}
	got, err := wholeCubeSum(st.front.url)
	if err != nil {
		return fail(err)
	}
	if got != b.total {
		return fail(fmt.Errorf("first answer after boot is %d, want %d", got, b.total))
	}
	return st, time.Since(t0), nil
}

// wholeCubeSum asks for the sum over the whole cube: a query with no
// selector.
func wholeCubeSum(base string) (int64, error) {
	lc := newLoadClient()
	defer lc.close()
	status, err := lc.do(&request{method: http.MethodGet, url: base + "/query?op=sum"})
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /query?op=sum: status %d: %s", status, bytes.TrimSpace(lc.buf.Bytes()))
	}
	vals, err := answers(lc.buf.Bytes(), false)
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}
