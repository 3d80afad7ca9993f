package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"time"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/cube"
	"rangecube/internal/faultio"
	"rangecube/internal/ndarray"
	"rangecube/internal/server"
	"rangecube/internal/wal"
)

// serverEngine drives the full serving stack over HTTP: cube model, WAL,
// checksummed snapshots, and the query handlers. Checkpoint is a simulated
// crash: the server is closed and a fresh one is recovered from the
// snapshot + WAL in the same directory, so differential agreement after a
// checkpoint certifies the §5 durability path end to end.
type serverEngine struct {
	name  string
	batch bool // answer Sum through POST /query/batch instead of GET /query
	dir   string
	opts  server.Options
	dims  []*cube.Dimension
	init  []int64

	srv *server.Server
	ts  *httptest.Server
}

// newServerEngine builds the default engine in dir (which must exist and be
// private to it). CompactEvery is deliberately tiny so scenarios cross
// snapshot-truncate boundaries, not just WAL appends.
func newServerEngine(a *ndarray.Array[int64], dir string) (SumEngine, error) {
	return newServerVariant(a, dir, "server", false, nil)
}

// newServerVariant builds a named serving-stack engine. batch routes every
// Sum through the concurrent /query/batch endpoint; tune mutates the server
// options (block size, disk, remote shards) before startup, so those
// configurations are held to the same oracle as the plain one.
func newServerVariant(a *ndarray.Array[int64], dir, name string, batch bool, tune func(*server.Options)) (SumEngine, error) {
	e := &serverEngine{
		name:  name,
		batch: batch,
		dir:   dir,
		init:  append([]int64(nil), a.Data()...),
	}
	for j, n := range a.Shape() {
		e.dims = append(e.dims, cube.NewIntDimension(fmt.Sprintf("d%d", j), 0, n-1))
	}
	e.opts = server.Options{
		BlockSize:    1,
		Fanout:       2,
		WALPath:      filepath.Join(dir, "updates.wal"),
		SnapshotPath: filepath.Join(dir, "cube.snap"),
		CompactEvery: 3,
		Logf:         func(string, ...any) {},
	}
	if tune != nil {
		tune(&e.opts)
	}
	if err := e.start(); err != nil {
		return nil, err
	}
	return e, nil
}

// start boots (or recovers) the server from the directory. The in-memory
// seed data is loaded first; recovery replays the snapshot and WAL on top,
// which on a fresh directory is a no-op and after Checkpoint restores all
// applied batches.
func (e *serverEngine) start() error {
	c := cube.New(e.dims...)
	copy(c.Data().Data(), e.init)
	srv, err := server.NewWithOptions(c, e.opts)
	if err != nil {
		return fmt.Errorf("server engine: start: %w", err)
	}
	e.srv = srv
	e.ts = httptest.NewServer(srv.Handler())
	return nil
}

func (e *serverEngine) Name() string { return e.name }

func (e *serverEngine) Sum(r ndarray.Region) (int64, error) {
	if r.Empty() {
		// The selector syntax has no empty interval; an empty region is a
		// degenerate client-side case with a fixed answer.
		return 0, nil
	}
	if e.batch {
		return e.sumViaBatch(r)
	}
	q := url.Values{"op": {"sum"}}
	for j, rng := range r {
		q.Set(fmt.Sprintf("d%d", j), fmt.Sprintf("%d..%d", rng.Lo, rng.Hi))
	}
	resp, err := e.ts.Client().Get(e.ts.URL + "/query?" + q.Encode())
	if err != nil {
		return 0, fmt.Errorf("server engine: query: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("server engine: query status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Value int64 `json:"value"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("server engine: decoding query response: %w", err)
	}
	return out.Value, nil
}

// sumViaBatch answers one range-sum through POST /query/batch. The posted
// batch is [query, query, bogus-op]: the duplicate pins down the
// one-read-epoch guarantee (both items must answer identically) and the
// bogus op pins down per-item error isolation (its failure must not poison
// the real answers).
func (e *serverEngine) sumViaBatch(r ndarray.Region) (int64, error) {
	sel := make(map[string]string, len(r))
	for j, rng := range r {
		sel[fmt.Sprintf("d%d", j)] = fmt.Sprintf("%d..%d", rng.Lo, rng.Hi)
	}
	items := []map[string]any{
		{"op": "sum", "select": sel},
		{"op": "sum", "select": sel},
		{"op": "mode", "select": sel},
	}
	payload, err := json.Marshal(items)
	if err != nil {
		return 0, err
	}
	resp, err := e.ts.Client().Post(e.ts.URL+"/query/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, fmt.Errorf("server engine: batch query: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("server engine: batch query status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []struct {
			Result *struct {
				Value int64 `json:"value"`
			} `json:"result"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("server engine: decoding batch response: %w", err)
	}
	if len(out.Results) != len(items) {
		return 0, fmt.Errorf("server engine: batch returned %d results for %d queries", len(out.Results), len(items))
	}
	for i := 0; i < 2; i++ {
		if out.Results[i].Error != "" || out.Results[i].Result == nil {
			return 0, fmt.Errorf("server engine: batch item %d failed: %s", i, out.Results[i].Error)
		}
	}
	if a, b := out.Results[0].Result.Value, out.Results[1].Result.Value; a != b {
		return 0, fmt.Errorf("server engine: duplicate batch items disagree: %d vs %d", a, b)
	}
	if out.Results[2].Error == "" {
		return 0, fmt.Errorf("server engine: bogus-op batch item was not rejected")
	}
	return out.Results[0].Result.Value, nil
}

func (e *serverEngine) Apply(batch []batchsum.IntUpdate) error {
	type ju struct {
		Coords []int `json:"coords"`
		Delta  int64 `json:"delta"`
	}
	req := struct {
		Updates []ju `json:"updates"`
	}{Updates: make([]ju, len(batch))}
	for i, u := range batch {
		req.Updates[i] = ju{Coords: u.Coords, Delta: u.Delta}
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := e.ts.Client().Post(e.ts.URL+"/update", "application/json", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("server engine: update: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server engine: update status %d: %s", resp.StatusCode, body)
	}
	return nil
}

// Checkpoint simulates crash + recovery: the HTTP server and WAL handles
// are torn down and a new server is recovered from the on-disk state.
func (e *serverEngine) Checkpoint() error {
	e.ts.Close()
	if err := e.srv.Close(); err != nil {
		return fmt.Errorf("server engine: close before recovery: %w", err)
	}
	return e.start()
}

func (e *serverEngine) Close() error {
	e.ts.Close()
	return e.srv.Close()
}

// faultyWalEngine is the serving stack on a misbehaving disk: its WAL file
// answers to a fault injector that fires on a fixed cadence — a repairable
// single-fsync fault every 4th update batch (healed inline, invisible to
// the oracle) and an unrepairable burst every 9th (poisoning the log,
// flipping the server degraded, and forcing the background probe to rebuild
// durability). Apply does not return until the batch is genuinely acked, so
// differential agreement certifies that every acknowledged write — across
// inline repairs, shed windows and degraded-mode recoveries — matches the
// naive oracle, and Checkpoint additionally proves the recovery artifacts
// survive a crash.
type faultyWalEngine struct {
	*serverEngine
	inj     *faultio.Injector
	applies int
}

func newFaultyWalVariant(a *ndarray.Array[int64], dir string) (SumEngine, error) {
	inj := faultio.NewInjector()
	base, err := newServerVariant(a, dir, "server/faulty-wal", false, func(o *server.Options) {
		o.WALOpenFile = func(p string) (wal.File, error) { return inj.Open(p) }
	})
	if err != nil {
		return nil, err
	}
	return &faultyWalEngine{serverEngine: base.(*serverEngine), inj: inj}, nil
}

func (e *faultyWalEngine) Apply(batch []batchsum.IntUpdate) error {
	e.applies++
	switch {
	case e.applies%9 == 0:
		// A burst the rewind-and-retry path cannot clear; the leftover
		// budget also fails the probe's first recovery attempts, so the
		// retry loop below exercises repeated recovery failures too.
		e.inj.FailSyncs(8, faultio.ErrIO)
	case e.applies%4 == 0:
		e.inj.FailSyncs(1, faultio.ErrNoSpace)
	}
	err := e.serverEngine.Apply(batch)
	if err == nil {
		return nil
	}
	// Shed (degraded 503): the batch was never applied, so re-submitting
	// cannot double-apply. Wait out the probe's recovery and retry until
	// the write is acked — only acked writes enter the oracle.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if !e.srv.Health().Degraded {
			if err = e.serverEngine.Apply(batch); err == nil {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("faulty-wal engine: update never acked: %w", err)
}

// Checkpoint heals the disk before the simulated crash: a leftover fault
// budget would fail the recovery boot, which is a different scenario (a
// disk still broken across restart) than the one this engine certifies.
func (e *faultyWalEngine) Checkpoint() error {
	e.inj.Clear()
	return e.serverEngine.Checkpoint()
}
