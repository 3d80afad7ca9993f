// Package server wraps a data cube and its precomputed range-query
// structures in an HTTP API, the deployment shape the paper's model
// implies: queries run concurrently against immutable structures, updates
// arrive in batches (§5's nightly-update model) under a write lock, and
// every response reports the paper's cost proxy (elements accessed)
// alongside the answer. Handler lists every route with its guards, e.g.
// GET /query?op=sum&age=37..52&type=auto.
//
// Selector syntax per dimension: name=value, name=lo..hi, name=*
// (unspecified dimensions default to "all"). op=sum responses include §11
// [lower, upper] bounds, computed in the same walk as the exact answer; at
// BlockSize 1, and on a healthy remote leader, both equal the value.
//
// Robustness model: update batches are appended to a write-ahead log and
// fsynced before they touch memory, a checksummed snapshot of the cube is
// rotated in atomically every CompactEvery batches (after which the log is
// truncated), long queries honor request-context cancellation at ~64k-cell
// checkpoints, and an admission semaphore sheds excess query load with 429
// rather than queueing without bound.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rangecube/internal/client"
	"rangecube/internal/cube"
	"rangecube/internal/ingest"
	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/shard"
	"rangecube/internal/telemetry"
	"rangecube/internal/trace"
	"rangecube/internal/wal"
)

// Options configures the optional robustness machinery. The zero value
// reproduces the original in-memory server: no durability, no admission
// limit, no deadline.
type Options struct {
	// BlockSize is the uniform block size b of the blocked index that answers
	// op=sum and op=avg, the sum structure's only knob. 0 means 1: b = 1 is the
	// §3 array P (2^d accesses per query, 8 bytes per cell, a §5 batch update
	// over P on every commit, §11 bounds equal to the value); a larger b is
	// the §4 decomposition (8/b^d bytes per cell plus edge arrays of
	// 8·((1+1/b)^d − 1 − 1/b^d), which its boundary scans read wherever a
	// region is block-aligned). See shard's localEngine for the full
	// per-structure account.
	BlockSize int
	// Fanout is the §6 max/min trees' branching factor: 0 means 4, below 2 is refused.
	Fanout int
	// SumEngine is a deprecated alias for a block size, kept until the
	// benchmark stops naming engines: "prefixsum" means BlockSize 1,
	// "blocked" or "" means BlockSize itself (shard.ResolveBlockSize).
	SumEngine string

	// ShardURLs, when non-empty, slab-partitions the logical cube along its
	// widest dimension (ndarray.WidestDim) across remote shard processes:
	// entry i is the base URL of the cubeserver process serving shard i
	// (booted with -serve-shard i). Without it the server answers through a
	// one-shard router whose engine is built in place over the cube's own
	// cells. On boot the leader pushes each shard its authoritative slab
	// state (POST /state), and a background probe re-pushes whenever a shard
	// was marked down, on the schedule of loop.go's backoff. A shard that
	// stays unreachable degrades sums to partial answers with §11 bounds
	// covering the absent slab; other ops fail with 503.
	ShardURLs []string
	// ShardTimeout bounds each remote read or scatter round trip, hedge
	// included. 0 means 2s. A read or update record silent for a twentieth
	// of it gets one hedged duplicate (first answer wins).
	ShardTimeout time.Duration

	// AcceptState makes the server a shard process (cubeserver
	// -serve-shard): a replica whose leader replaces its entire cube state
	// with a pushed snapshot (POST /state) and sends it its update records
	// (POST /shard/apply), answering 503 until the first push lands. It
	// rejects /update with 403 and takes no WALPath or SnapshotPath; it must
	// stay off on any server whose own state is authoritative.
	AcceptState bool
	// AwaitState is ignored (AcceptState awaits its first push); it stays
	// only while the benchmark still sets it, as SumEngine stays.
	AwaitState bool

	// WALPath, when non-empty, enables write-ahead logging: every /update
	// batch is appended and fsynced before it is applied. On startup the
	// log's committed prefix is replayed over the cube (after the snapshot,
	// if one exists).
	WALPath string
	// SnapshotPath, when non-empty, is where compaction writes checksummed
	// cube snapshots (atomically: temp + fsync + rename). On startup an
	// existing snapshot is loaded before WAL replay.
	SnapshotPath string
	// CompactEvery is the number of logged batches after which the server
	// snapshots the cube and truncates the WAL. 0 means 64. It only takes
	// effect when both WALPath and SnapshotPath are set.
	CompactEvery int
	// WALOpenFile overrides how the WAL's backing file is opened. Nil means
	// the real filesystem; the disk-chaos harness injects ENOSPC/EIO/fsync
	// faults here.
	WALOpenFile wal.OpenFileFunc

	// MaxInflight caps concurrently executing /query, /query/batch,
	// /shard/query and /update requests; excess requests are shed immediately
	// with 429 and Retry-After. 0 means unlimited.
	MaxInflight int
	// QueryTimeout bounds each /query request; past the deadline the
	// scan abandons work at its next cancellation checkpoint and the
	// request fails with 503. 0 means no deadline.
	QueryTimeout time.Duration

	// IngestQueue bounds the group-commit batcher every writable server
	// commits through: /update writers enqueue (this many pending
	// submissions) and a single flusher coalesces each drained group
	// through the §5 update-class machinery, appends one WAL batch with one
	// fsync, and applies it under one write-lock epoch. It commits as soon
	// as the queue is momentarily empty, so groups form while a commit's
	// fsync is in flight. A full queue sheds writers with 429. 0 means 256.
	// An /update is acked after its group's fsync unless it asks
	// ?durability=async (202 at enqueue; a crash before the flush loses it).
	IngestQueue int

	// TraceSample is the distributed-tracing head-sampling rate in [0, 1]:
	// that fraction of inbound requests records a full span tree into the
	// trace ring store of trace.DefaultStore spans, the window GET
	// /debug/traces serves (slow, partial and error requests are always kept,
	// though without children once sampled out). 0 means the default 1%;
	// negative disables tracing entirely. Requests arriving with an
	// X-Trace-Id header join the caller's trace and always record.
	TraceSample float64
	// SlowQuery is the slow-request threshold: a request at least this slow
	// is kept in the trace store regardless of sampling and emits one
	// "slow-query:" exemplar line on the access-log stream (even with
	// AccessLog off). 0 means 250ms; negative disables both.
	SlowQuery time.Duration

	// Metrics exposes GET /metrics (Prometheus text exposition) on the
	// serving handler. The telemetry itself is recorded either way; this
	// only controls whether the scrape endpoint is mounted.
	Metrics bool
	// AccessLog emits one Logf line per served request: method, path,
	// status, bytes, latency, request ID.
	AccessLog bool

	// Logf receives operational log lines (recovery, compaction, panics).
	// Nil means log.Printf.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.CompactEvery <= 0 {
		o.CompactEvery = 64
	}
	if o.IngestQueue <= 0 {
		o.IngestQueue = 256
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	o.Fanout = cmp.Or(o.Fanout, 4)
	o.SlowQuery = cmp.Or(o.SlowQuery, trace.DefaultSlow)
	return o
}

// Sizes no deployment tunes: the ingest flusher gathers at most
// ingestMaxBatch point updates into one group, a /query/batch request or
// scatter frame may hold at most maxBatchQueries queries, and no request
// body the server reads (/update, /query/batch, /shard/query, /shard/apply)
// may pass maxBodyBytes, which a remote leader's sender cuts its deliveries
// to fit.
const (
	ingestMaxBatch  = 4096
	maxBatchQueries = 1024
	maxBodyBytes    = 8 << 20
)

// Server holds the cube and, in a shard.Router, every structure that
// answers queries over it. Queries take the read lock; update batches take
// the write lock and rebuild nothing — the router's engines run the §5/§7
// incremental algorithms.
type Server struct {
	opts Options
	// Keeps met, ridSeq and tracer at the offsets they had while Options held
	// 40 more bytes of fields and Server one more before met: which fields
	// share a cache line measurably moves the cost of a query.
	_    [48]byte
	logf func(format string, args ...any)

	// A read-only server is a replica whose state arrives through
	// replication — a shard process (AcceptState) or a JoinLeader follower,
	// whose leaderURL names the writable leader in 403 bodies — and rejects
	// every update.
	readOnly  bool
	leaderURL string

	// commitMu serializes everything that changes the cube's cells, seq or
	// the WAL: commits, compaction, storage recovery, /state installs,
	// replicated applies and Close. Readers never take it, and all disk I/O
	// happens under it alone; mu is write-locked only for the in-memory
	// change a reader could observe (structure apply, a swapped pointer, a
	// published offset). Lock order: commitMu, then mu — everywhere.
	commitMu sync.Mutex
	mu       sync.RWMutex

	cube *cube.Cube
	// router is the one structure set (see sharding.go): a one-shard map
	// serving the cube's cells in place, in-process slab copies, or remote
	// shard processes. A /state push replaces it under the write lock.
	router *shard.Router

	// remoteEngines are the engines behind the router when ShardURLs is set
	// (remote.go); nil otherwise.
	remoteEngines []*shard.RemoteEngine

	// awaitingState gates serving until the first /state push installs real
	// data (remote.go).
	awaitingState atomic.Bool

	// loops are the background jobs (loop.go) that Close stops.
	loops []*loop

	// Once the server is built, wal and seq are written with commitMu and the
	// write lock both held, so either lock suffices to read them; sinceSnap
	// belongs to commitMu alone. seq, the sequence number of the last applied
	// batch, is atomic so that Seq and the lag stamps read it with no lock; a
	// reader that pairs it with the cube or walEnd loads it under the read lock.
	wal       *wal.Log // nil when WALPath is empty
	seq       atomic.Uint64
	sinceSnap int // batches logged since the last snapshot

	// Replication (replication.go): walEnd is the log offset below which
	// every record is applied. A record is durable before it is applied, so
	// the file may run one record past walEnd: GET /wal stops at walEnd and
	// never asks the file or the Log for a length. walOffs[i] is the offset of
	// batch walBase+1+i's record in the current log, so GET /wal?after=<seq>
	// finds its start without reading the log. All are written inside a
	// write-lock hold, so a read epoch sees them agree.
	walEnd  atomic.Int64
	walBase uint64
	walOffs []int64

	batcher *ingest.Batcher // the one commit entry; nil only on a read-only server

	inflight chan struct{} // admission semaphore; nil when unlimited

	met       *serverMetrics // every series the server records into
	ridPrefix string         // per-server random prefix for minted request IDs
	ridSeq    atomic.Uint64  // sequence for minted request IDs

	// tracer records sampled request span trees into the /debug/traces ring
	// store; nil when TraceSample < 0 (every span call then no-ops).
	tracer *trace.Tracer

	// Replication-lag visibility for a JoinLeader follower: the leader's
	// committed seq as of the last successful /wal poll, and the unixnano
	// instant replication last made progress (a batch applied, or confirmed
	// caught-up) — the cube_replica_wal_lag_* gauges derive from these. A
	// remote-shard leader's cube_shard_lag_* gauges read the engines'
	// own seq and down instant.
	followLeaderSeq atomic.Uint64
	followProgress  atomic.Int64

	// Degraded read-only mode and draining, loaded once per read (health.go).
	health atomic.Pointer[health]

	// The fields from send on are the remote and storage machinery, after
	// every hot field so none of those moved: send delivers commits to
	// remoteEngines and resync re-pushes down shards (remote.go); storage
	// rebuilds a poisoned log (health.go). Each is nil where it has no job.
	send    *sender
	resync  *loop
	storage *loop

	// dial reaches every peer (shards, a followed leader); peers retries once
	// over it, for the state pushes and the follow pump.
	dial  *http.Client
	peers *client.Client
}

// NewWithOptions builds a server over the cube and, when durability paths
// are configured, performs crash recovery: load the snapshot (verifying its
// checksum), replay the WAL's committed prefix on top, truncate any torn
// tail, and only then build the query structures from the recovered cells.
// The cube's cell array is mutated in place to the recovered state.
func NewWithOptions(c *cube.Cube, opts Options) (*Server, error) {
	return newServer(c, opts, "", newPeerClient())
}

// newPeerClient builds a server's one outbound client: 64 idle connections
// per host and no total cap, so two shards never evict each other's.
func newPeerClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns, tr.MaxIdleConnsPerHost = 0, 64
	return &http.Client{Transport: tr}
}

// newServer is NewWithOptions dialing through hc, for a server that may
// follow the leader at leaderURL (JoinLeader), which makes it read-only.
func newServer(c *cube.Cube, opts Options, leaderURL string, hc *http.Client) (*Server, error) {
	opts = opts.withDefaults()
	var err error
	if opts.BlockSize, err = shard.ResolveBlockSize(opts.SumEngine, opts.BlockSize); err != nil {
		return nil, err
	}
	if opts.AcceptState && len(opts.ShardURLs) > 0 {
		return nil, errors.New("server: a remote-shard leader's state is authoritative, it cannot also accept pushes")
	}
	if opts.AcceptState && (opts.WALPath != "" || opts.SnapshotPath != "") {
		// A shard's slab is the leader's to push: a local log or snapshot of
		// it could only ever reboot the shard into a state it no longer holds.
		return nil, errors.New("server: a shard process keeps no WAL or snapshot, its state is pushed by the leader")
	}
	s := &Server{opts: opts, logf: opts.Logf, cube: c, readOnly: opts.AcceptState || leaderURL != "", leaderURL: leaderURL, dial: hc,
		peers: client.New(client.Options{MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond, HTTPClient: hc})}
	s.ridPrefix = ridPrefix()
	s.health.Store(&health{})
	// The tracer exists before telemetry registration so the span counters
	// can be exported by callback; trace.New returns nil (all span calls
	// no-op) when sampling is negative.
	s.tracer = trace.New(trace.Options{
		Sample: opts.TraceSample,
		Slow:   opts.SlowQuery,
	})

	// Telemetry registration precedes recovery so the WAL can be wired the
	// moment it opens.
	s.met = newServerMetrics(s, telemetry.NewRegistry())

	if opts.SnapshotPath != "" {
		if err := s.loadSnapshot(); err != nil {
			return nil, err
		}
	}
	if opts.WALPath != "" {
		l, batches, err := wal.OpenFile(opts.WALPath, opts.WALOpenFile)
		if err != nil {
			return nil, err
		}
		s.wal = l
		s.walEnd.Store(l.Size())
		l.SetMetrics(&s.met.walMet)
		// Index the replayed batches for GET /wal: the log holds its records
		// back to back after the header.
		s.walBase = s.seq.Load()
		at := wal.HeaderSize
		replayed := 0
		for _, b := range batches {
			p, _ := wal.EncodeBatch(b) // b was decoded from a record, so it encodes
			off := at
			at += wal.FrameSize + int64(len(p))
			if b.Seq <= s.seq.Load() {
				continue // already folded into the snapshot
			}
			if err := s.replayBatch(b); err != nil {
				l.Close()
				return nil, fmt.Errorf("server: replaying batch %d: %w", b.Seq, err)
			}
			s.seq.Store(b.Seq)
			s.walOffs = append(s.walOffs, off)
			replayed++
		}
		s.sinceSnap = replayed
		if replayed > 0 || len(batches) > 0 {
			s.logf("server: recovered %d WAL batches (%d replayed past snapshot seq)", len(batches), replayed)
		}
	}

	// The router builds over the recovered cells, before any request arrives.
	if err := s.buildRouter(); err != nil {
		if s.wal != nil {
			s.wal.Close()
		}
		return nil, err
	}
	s.met.pinCostObservers(s)
	s.awaitingState.Store(opts.AcceptState)
	if len(opts.ShardURLs) > 0 {
		s.send = &sender{delivered: s.seq.Load(), advanced: make(chan struct{})}
		s.send.loop = s.startLoop("shard delivery", idle, s.deliver)
		turns := make([]resyncTurn, len(s.remoteEngines))
		s.resync = s.startLoop("shard resync", maxWait, func() time.Duration { return s.resyncDownShards(turns) })
		// Push every shard its slab at once. A failed push marks the shard
		// down and wakes the resync loop, which keeps retrying; until then
		// its slabs answer as missing (partial sums, 503 extremes).
		s.eachEngine(func(_ int, e *shard.RemoteEngine) {
			if s.resyncShard(e) != nil {
				s.resync.wake()
			}
		})
	}

	if opts.MaxInflight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInflight)
	}
	if !s.readOnly {
		// The batcher starts only after recovery so its commits never race
		// the replay; its flusher is the sole caller of commitGroups. A
		// read-only server rejects every update before the commit path.
		s.batcher = ingest.New(ingest.Options{
			QueueSize: opts.IngestQueue,
			MaxBatch:  ingestMaxBatch,
			Commit:    s.commitGroups,
			Metrics:   &s.met.ingestMet,
			Logf:      s.logf,
		})
	}
	// Recovery rebuilds durability as fresh-snapshot-then-new-WAL, so with
	// no snapshot path a probe could never succeed: a poisoned WAL-only
	// server stays degraded (still serving reads) until restarted.
	if s.wal != nil && opts.SnapshotPath != "" {
		var b backoff
		s.storage = s.startLoop("storage probe", idle, func() time.Duration { return s.probeStorage(&b) })
	}
	return s, nil
}

// loadSnapshot replaces the cube's cells with the snapshot's, if one exists.
func (s *Server) loadSnapshot() error {
	f, err := os.Open(s.opts.SnapshotPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil // first boot: the provided cube is the initial state
	}
	if err != nil {
		return err
	}
	defer f.Close()
	// Straight into the cube: a load that fails fails the boot.
	seq, _, err := persist.ReadSnapshot(f, s.cube.Data())
	if err != nil {
		return fmt.Errorf("server: loading snapshot %s: %w", s.opts.SnapshotPath, err)
	}
	s.seq.Store(seq)
	s.logf("server: loaded snapshot %s (seq %d)", s.opts.SnapshotPath, seq)
	return nil
}

// replayBatch applies a recovered WAL batch directly to the cube cells; the
// query structures are built afterwards, so no incremental repair is needed.
func (s *Server) replayBatch(b wal.Batch) error {
	a := s.cube.Data()
	if err := checkUpdates(a.Shape(), b.Updates); err != nil {
		return err
	}
	for _, u := range b.Updates {
		a.Set(a.At(u.Coords...)+u.Delta, u.Coords...)
	}
	return nil
}

// checkUpdates names the first of ups whose coordinates do not name a cell of
// a cube of the given shape: a wrong rank or a coordinate out of range. Every
// update is checked before it is queued or applied, because the commit path
// computes cell offsets, which panic on such coordinates.
func checkUpdates(shape []int, ups []wal.Update) error {
	for i, u := range ups {
		if len(u.Coords) != len(shape) {
			return fmt.Errorf("update %d: %d coords, want %d", i, len(u.Coords), len(shape))
		}
		for j, x := range u.Coords {
			if x < 0 || x >= shape[j] {
				return fmt.Errorf("update %d: coordinate %d out of bounds in dimension %d", i, x, j)
			}
		}
	}
	return nil
}

// Seq returns the sequence number of the last applied update batch.
func (s *Server) Seq() uint64 { return s.seq.Load() }

// Checkpoint forces a snapshot-and-truncate compaction. It is what the
// process calls on graceful shutdown so the next boot replays nothing.
func (s *Server) Checkpoint() error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.compact()
}

// Close drains the ingestion pipeline, checkpoints if possible and
// releases the WAL file. The server must not serve requests afterwards.
func (s *Server) Close() error {
	if s.batcher != nil {
		// Stop before taking the lock: the drain commits queued groups,
		// and each commit needs the commit mutex itself.
		s.batcher.Stop()
	}
	for _, l := range s.loops {
		l.stop()
	}
	if s.send != nil { // after the flusher: send what the drain committed
		s.send.loop.run()
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.wal == nil {
		return nil
	}
	// A poisoned log cannot be compacted (Reset fails fast). One last
	// recovery attempt captures the state in a snapshot and supersedes the
	// log; if that also fails the state is still durable on the old
	// committed prefix, so closing is safe, just noisy.
	var err error
	switch {
	case s.health.Load().halfApplied():
		// The log, not the cube, holds the last batch whole: the next boot
		// replays it.
	case s.wal.Poisoned() == nil:
		err = s.compact()
	default:
		if rerr := s.recoverStorageLocked(); rerr != nil {
			s.logf("server: shutdown recovery failed, closing degraded: %v", rerr)
		}
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.mu.Lock()
	s.wal = nil
	s.mu.Unlock()
	return err
}

// compact writes an atomic checksummed snapshot of the current cells and
// truncates the WAL. The caller holds commitMu and not the write lock: no
// writer can run, so the cells and seq are stable while queries keep
// reading them, and the write lock is taken only to publish the truncation.
// A snapshot failure leaves the WAL intact: the state is still durable, just
// longer to replay.
func (s *Server) compact() error {
	if s.wal == nil || s.opts.SnapshotPath == "" {
		return nil
	}
	if s.sinceSnap == 0 {
		return nil // nothing new since the last snapshot
	}
	return s.snapshotLocked("WAL truncated", s.wal.Reset)
}

// snapshotLocked writes the cells at seq to SnapshotPath atomically, then
// has restart begin the log after them — compaction truncates it, storage
// recovery supersedes it — publishes that the log now starts after seq (a
// follower behind it re-anchors on the snapshot just written), and logs the
// outcome. The caller holds commitMu. A failure leaves the published log as
// it was.
func (s *Server) snapshotLocked(done string, restart func() error) error {
	err := persist.WriteFileAtomic(s.opts.SnapshotPath, func(w io.Writer) error {
		return persist.WriteSnapshot(w, s.seq.Load(), s.cube.Data())
	})
	if err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	if err := restart(); err != nil {
		return fmt.Errorf("server: restarting WAL after snapshot: %w", err)
	}
	s.publishWALReset()
	s.sinceSnap = 0
	s.logf("server: snapshot %s at seq %d, %s", s.opts.SnapshotPath, s.seq.Load(), done)
	return nil
}

// Handler returns every route in serve's one frame, each registered once with
// its guards. An update flood sheds at the same MaxInflight cap as queries,
// but takes no deadline: a WAL-logged batch must finish applying. The probes,
// /metrics, /debug/traces and the replication surface bypass admission: they
// must answer precisely when the server sheds, and none competes for the
// structures' read epochs. Every route that would read a shard's placeholder
// cube waits for the first push.
func (s *Server) Handler() http.Handler {
	query := admit | deadline | placeholder
	mux := http.NewServeMux()
	mux.Handle("GET /schema", route{s.handleSchema, 0})
	mux.Handle("GET /query", route{s.handleQuery, query})
	mux.Handle("POST /query/batch", route{s.handleQueryBatch, query})
	mux.Handle("POST /shard/query", route{s.handleShardQuery, query}) // a leader's scatter frame (remote.go)
	mux.Handle("POST /update", route{s.handleUpdate, admit})
	mux.Handle("GET /healthz", route{s.handleHealthz, 0})
	mux.Handle("GET /readyz", route{s.handleReadyz, 0})
	mux.Handle("GET /wal", route{s.handleWALFetch, 0})
	mux.Handle("GET /snapshot", route{s.handleSnapshotFetch, 0})
	if s.opts.AcceptState {
		mux.Handle("POST /state", route{s.handleState, 0})
		mux.Handle("POST /shard/apply", route{s.handleShardApply, placeholder})
	}
	if s.opts.Metrics {
		mux.Handle("GET /metrics", route{s.met.reg.Handler().ServeHTTP, 0})
	}
	mux.Handle("GET /debug/traces", route{s.handleTraces, 0})
	return s.serve(mux)
}

// Metrics returns the server's telemetry registry, for embedding the
// exposition somewhere other than /metrics.
func (s *Server) Metrics() *telemetry.Registry {
	return s.met.reg
}

func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Usually the client hung up; the response cannot be repaired, but
		// the failure should not vanish without a trace.
		s.logf("server: encoding response rid=%s: %v", RequestIDFrom(r.Context()), err)
	}
}

// writeError answers with a JSON error body carrying the request's
// correlation ID, so a client-side failure can be matched to the server-side
// log line without shared clocks.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	if rid := RequestIDFrom(r.Context()); rid != "" {
		body["request_id"] = rid
	}
	s.writeJSON(w, r, status, body)
}

// handleSchema reports the dimensions.
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	type dim struct {
		Name string `json:"name"`
		Size int    `json:"size"`
		Low  string `json:"low"`
		High string `json:"high"`
	}
	// The cube pointer can move under a /state push; one epoch of it answers
	// the whole response.
	s.mu.RLock()
	c, cells := s.cube, s.cube.Data().Size()
	s.mu.RUnlock()
	dims := make([]dim, c.Dims())
	for i := range dims {
		d := c.Dimension(i)
		dims[i] = dim{Name: d.Name(), Size: d.Size(), Low: d.ValueAt(0), High: d.ValueAt(d.Size() - 1)}
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"dimensions": dims,
		"cells":      cells,
	})
}

// handleQuery answers one query as a batch of one: its own parse and 400s,
// then the same evaluation as POST /query/batch (evalSlots). Its selectors
// are taken in the order the query string first names them, so the bad one
// a 400 names is the first.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query() // parsed once: op and the selectors both read it
	given := cmp.Or(params.Get("op"), "sum")
	op, rop, ok := validOp(given)
	if !ok {
		s.writeError(w, r, http.StatusBadRequest, "unknown op %q (sum, count, avg, max, min)", given)
		return
	}
	c := s.cube
	var buf [4]named
	sel := selection{named: buf[:0]}
	if d := c.Dims(); d <= len(buf) {
		sel.named = buf[:d]
	} else {
		sel.named = make([]named, d)
	}
	sel.clear()
	// The names in the order of their first pair, as url.ParseQuery reads
	// pairs: one holding a ';' or an undecodable name or value is not a pair.
	for raw := r.URL.RawQuery; raw != ""; {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		key, value, _ := strings.Cut(pair, "=")
		name, kerr := url.QueryUnescape(key)
		_, verr := url.QueryUnescape(value)
		vals, given := params[name]
		if strings.Contains(pair, ";") || kerr != nil || verr != nil || !given || name == "op" {
			continue
		}
		delete(params, name)
		if len(vals) != 1 {
			sel.addBad(fmt.Errorf("dimension %q specified %d times", name, len(vals)))
		} else {
			sel.add(c, name, vals[0])
		}
	}
	region := make(ndarray.Region, c.Dims())
	if err := sel.resolve(c, region); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	slots := []batchSlot{{op: op, rop: rop, region: region}}
	if _, err := s.evalSlots(r.Context(), slots); err != nil {
		s.writeCtxError(w, r, err)
		return
	}
	if slots[0].err != "" {
		s.writeError(w, r, http.StatusInternalServerError, "%s", slots[0].err)
		return
	}
	s.writeEncoded(w, http.StatusOK, func(dst []byte) []byte { return appendAnswer(dst, &slots[0].ans, c) })
}

// writeCtxError reports a query abandoned as a whole, always with 503. A
// deadline is the server's fault (the client may retry); a cancellation means
// the client is gone and the status is a formality; anything else — a shard's
// permanent refusal, an undecodable answer — failed the query.
func (s *Server) writeCtxError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, shard.ErrShardDown):
		// A query shape with no partial form (avg, max, min) hit a missing
		// shard. The resync probe retries a down shard at least once a
		// second, so a pushed recovery may have landed by then.
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, http.StatusServiceUnavailable, "shard unavailable: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Inc()
		// A deadline means the server is momentarily too loaded for this
		// query; one second is the shortest honest retry hint.
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, http.StatusServiceUnavailable, "query exceeded the %v deadline", s.opts.QueryTimeout)
	case errors.Is(err, context.Canceled):
		s.writeError(w, r, http.StatusServiceUnavailable, "query canceled: %v", err)
	default:
		s.writeError(w, r, http.StatusServiceUnavailable, "query failed: %v", err)
	}
}

// updateResponse is the JSON shape of /update acknowledgments. The three
// pipeline fields decompose ingestion latency for sync writers: when the
// submission entered the queue, how long it waited for its group's flush,
// and how long the group commit (coalesce + WAL fsync + apply) took.
type updateResponse struct {
	Applied    int    `json:"applied"`
	Seq        uint64 `json:"seq"`
	Durability string `json:"durability,omitempty"`
	// Enqueued means the batch was accepted but not yet committed — the
	// async-mode acknowledgment; Seq is 0 and the committed sequence is
	// only observable later (e.g. via cube_server_seq).
	Enqueued       bool  `json:"enqueued,omitempty"`
	EnqueuedUnixNS int64 `json:"enqueued_unix_ns,omitempty"`
	QueueWaitNS    int64 `json:"queue_wait_ns,omitempty"`
	CommitNS       int64 `json:"commit_ns,omitempty"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if err := s.refuseWrite(); err != nil {
		// Shed before reading the body. A replica's 403 says to write to the
		// leader; a degraded 503 to retry after the storage loop's longest wait.
		status := http.StatusForbidden
		if errors.Is(err, ErrDegraded) {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		s.writeError(w, r, status, "%v", err)
		return
	}
	updates, ok := s.readUpdates(w, r)
	if !ok {
		return
	}
	if len(updates) == 0 {
		s.writeError(w, r, http.StatusBadRequest, "empty update batch")
		return
	}
	// Lock-free cube read: the pointer only moves on an AcceptState server,
	// which the read-only gate above already refused, and this path must not
	// touch s.mu — the queue-full 429 has to come back even while a commit
	// is parked on the write lock.
	if err := checkUpdates(s.cube.Shape(), updates); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	mode := "sync"
	if v := r.URL.Query().Get("durability"); v != "" {
		if v != "sync" && v != "async" {
			s.writeError(w, r, http.StatusBadRequest, "unknown durability %q (sync, async)", v)
			return
		}
		mode = v
	}
	ack, enq, err := s.batcher.Submit(updates, mode == "sync")
	switch {
	case errors.Is(err, ingest.ErrQueueFull):
		// The hint is how long the current backlog takes to drain at the
		// measured commit rate, not a constant.
		w.Header().Set("Retry-After", s.retryAfterHint())
		s.writeError(w, r, http.StatusTooManyRequests, "ingest queue full, retry later")
		return
	case errors.Is(err, ingest.ErrClosed):
		s.writeError(w, r, http.StatusServiceUnavailable, "server shutting down")
		return
	case err != nil:
		s.writeError(w, r, http.StatusServiceUnavailable, "enqueue failed: %v", err)
		return
	}
	if mode == "async" {
		// Acknowledge at enqueue: the batch will commit in FIFO order, but
		// a crash before its group's fsync loses it — that is the contract
		// the client chose.
		s.writeJSON(w, r, http.StatusAccepted, updateResponse{
			Applied: len(updates), Durability: "async",
			Enqueued: true, EnqueuedUnixNS: enq.UnixNano(),
		})
		return
	}
	res := <-ack
	if res.Err != nil { // commitGroups or the batcher has logged the group's failure
		w.Header().Set("Retry-After", "1") // the storage probe's longest wait
		s.writeError(w, r, http.StatusServiceUnavailable, "update not durable: %v", res.Err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, updateResponse{
		Applied: len(updates), Seq: res.Seq, Durability: "sync",
		EnqueuedUnixNS: res.Enqueued.UnixNano(),
		QueueWaitNS:    res.Flushed.Sub(res.Enqueued).Nanoseconds(),
		CommitNS:       res.Committed.Sub(res.Flushed).Nanoseconds(),
	})
}
