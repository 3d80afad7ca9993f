package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"time"

	"rangecube/internal/ingest"
	"rangecube/internal/metrics"
	"rangecube/internal/shard"
	"rangecube/internal/telemetry"
	"rangecube/internal/trace"
	"rangecube/internal/wal"
)

// serverMetrics is every telemetry series the serving stack records into,
// registered once per server.
//
// Naming scheme (DESIGN.md §10): everything is prefixed cube_, units are
// encoded in the suffix (_total for monotonic counts, _seconds, _bytes),
// histograms record raw integers (nanoseconds, cells) and export scaled.
type serverMetrics struct {
	reg *telemetry.Registry

	// HTTP surface.
	requests *telemetry.CounterVec   // method, path, status
	latency  *telemetry.HistogramVec // path; nanoseconds, exported as seconds
	inflight *telemetry.Gauge
	shed     *telemetry.Counter // 429 from the admission semaphore
	timeouts *telemetry.Counter // 503 from the query deadline
	panics   *telemetry.Counter // recovered handler panics (500)

	// Batch endpoint shape.
	batchQueries  *telemetry.Histogram // queries per /query/batch request
	batchItemErrs *telemetry.Histogram // failed items per /query/batch request
	updateBatches *telemetry.Counter
	updateCells   *telemetry.Counter
	writeLockHold *telemetry.Histogram // per commit: how long readers were excluded
	walMet        wal.Metrics

	// Ingestion pipeline: the batcher records its flush count and commit
	// latency through ingestMet.
	ingestMet ingest.Metrics

	// Storage-fault tolerance: recoveries counts successful degraded-mode
	// exits (fresh snapshot + new WAL); the faults/repairs counters live in
	// walMet. cube_degraded itself is a callback gauge over Server.health.
	recoveries *telemetry.Counter

	// Resynchronizations: a follower re-bootstrapping after its shipped WAL
	// was superseded (kind=follower), or a leader pushing full state to a
	// remote shard that came back from down (kind=shard). Pinned children so
	// the hot paths skip the vec's label lookup.
	resyncFollower *telemetry.Counter
	resyncShard    *telemetry.Counter

	costCells *telemetry.HistogramVec // op, engine — the paper's §8 Cells
	costAux   *telemetry.HistogramVec // op, engine — §8 auxiliary reads
	costSteps *telemetry.HistogramVec // op, engine — §8 combining steps

	// costObs pins one observer per op. The engine serving each op is fixed
	// at construction, so the label resolution (a locked map lookup in the
	// registry) happens once here instead of three times per evaluated
	// query — under concurrent batch evaluation that lock is hot.
	costObs map[string]metrics.Observer
}

// newServerMetrics registers the full series set. s must already hold its
// query log (its length is exported by callback); the WAL is wired
// afterwards via walMet.
func newServerMetrics(s *Server, reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{reg: reg}

	m.requests = reg.CounterVec("cube_http_requests_total",
		"HTTP requests served, by method, route and status code.",
		"method", "path", "status")
	m.latency = reg.HistogramVec("cube_http_request_seconds",
		"End-to-end request latency by route.", 1e-9, "path")
	m.inflight = reg.Gauge("cube_http_inflight",
		"Requests currently being served.")
	m.shed = reg.Counter("cube_http_shed_total",
		"Requests shed with 429 by the admission semaphore.")
	m.timeouts = reg.Counter("cube_http_timeout_total",
		"Queries abandoned at the deadline and answered 503.")
	m.panics = reg.Counter("cube_http_panic_total",
		"Handler panics recovered into 500 responses.")

	m.batchQueries = reg.Histogram("cube_batch_queries",
		"Queries carried per /query/batch request.", 1)
	m.batchItemErrs = reg.Histogram("cube_batch_item_errors",
		"Failed items per /query/batch request.", 1)

	m.updateBatches = reg.Counter("cube_update_batches_total",
		"Update batches applied.")
	m.updateCells = reg.Counter("cube_update_cells_total",
		"Cell deltas applied across all update batches.")
	m.writeLockHold = reg.Histogram("cube_write_lock_hold_seconds",
		"Time one commit held the write lock, readers excluded: structure apply, never the WAL append, fsync or shard delivery.", 1e-9)

	// Ingestion pipeline. With a WAL attached every flushed group is
	// exactly one fsync, so cube_update_cells_total over
	// cube_ingest_flushes_total reads "updates per fsync".
	m.ingestMet = ingest.Metrics{
		Flushes: reg.Counter("cube_ingest_flushes_total",
			"Groups flushed by the ingest batcher (one WAL fsync each)."),
		CommitNanos: reg.Histogram("cube_ingest_commit_seconds",
			"Group commit latency: coalesce, WAL append + fsync, apply.", 1e-9),
	}

	m.walMet = wal.Metrics{
		AppendBytes: reg.Counter("cube_wal_append_bytes_total",
			"Durable bytes appended to the write-ahead log."),
		FsyncSeconds: reg.Histogram("cube_wal_fsync_seconds",
			"Latency of the fsync that commits each WAL append.", 1e-9),
		Faults: reg.Counter("cube_wal_faults_total",
			"WAL storage errors: failed append writes and fsyncs, and failed compaction resets."),
		Repairs: reg.Counter("cube_wal_repairs_total",
			"WAL append faults healed in place by the rewind-and-retry path."),
	}
	m.recoveries = reg.Counter("cube_storage_recoveries_total",
		"Degraded-mode recoveries completed (fresh snapshot + new WAL).")

	// Serving tier. The shard counters read the router by callback (a
	// one-shard router counts every structure-backed query as one query of
	// one sub-query).
	routerStat := func(i int) func() int64 {
		return func() int64 {
			q, sq, sc := s.liveRouter().Stats()
			return int64([...]uint64{q, sq, sc}[i])
		}
	}
	reg.GaugeFunc("cube_shards",
		"Engine shards the logical cube is partitioned across (1 = unsharded).",
		func() int64 { return int64(s.liveRouter().Shards()) })
	reg.CounterFunc("cube_shard_queries_total",
		"Queries scatter–gathered across the leader's shards.", routerStat(0))
	reg.CounterFunc("cube_shard_subqueries_total",
		"Per-shard sub-queries those queries decomposed into (ratio to cube_shard_queries_total is the live fan-out).",
		routerStat(1))
	reg.CounterFunc("cube_shard_scatter_cells_total",
		"Coalesced cell deltas scattered to owning shards by commits.", routerStat(2))
	reg.GaugeVecFunc("cube_structure_bytes",
		"Bytes held by each serving structure of this process's shards (cells, blocked, edges, maxtree, mintree; blocked is the packed array and its queue of deferred value-to-adds, the packed array being the §3 array P and edges 0 at block size 1), no samples on a leader of remote shards.",
		"structure", func() map[string]int64 {
			// Under the read lock: the blocked index's queue moves with commits.
			s.mu.RLock()
			defer s.mu.RUnlock()
			return s.router.StructureBytes()
		})
	// Remote shard tier: the engines record into RemoteStats, exported by
	// callback (0 while the shards are in-process).
	remoteStat := func(pick func(*shard.RemoteStats) uint64) func() int64 {
		return func() int64 {
			st := s.liveRouter().RemoteStats()
			if st == nil {
				return 0
			}
			return int64(pick(st))
		}
	}
	reg.CounterFunc("cube_shard_remote_errors_total",
		"Remote shard sub-queries and state pushes that failed (marking the shard down).",
		remoteStat(func(st *shard.RemoteStats) uint64 { return st.Errors.Load() }))
	reg.CounterFunc("cube_shard_remote_hedges_total",
		"Hedged duplicate requests launched against slow remote shards.",
		remoteStat(func(st *shard.RemoteStats) uint64 { return st.Hedges.Load() }))
	reg.CounterFunc("cube_shard_remote_partials_total",
		"Sum answers degraded to partial (bounds-only) by a down remote shard.",
		remoteStat(func(st *shard.RemoteStats) uint64 { return st.Partials.Load() }))

	// Replication-lag visibility. On a -join follower the WAL-ship loop
	// records the leader's committed sequence (from the fetch response
	// header) and the wall-clock instant of its last successful fetch; the
	// gauges derive lag in both units and read 0 once caught up. On a leader
	// with remote shards, each down engine holds the instant it went down and
	// the last seq its shard acked; the gauges report the worst shard still
	// down.
	resyncVec := reg.CounterVec("cube_shard_resync_total",
		"Full-state resynchronizations: kind=follower (WAL stream superseded, re-bootstrapped) or kind=shard (recovered remote shard re-seeded by the leader).",
		"kind")
	m.resyncFollower = resyncVec.With("follower")
	m.resyncShard = resyncVec.With("shard")
	reg.GaugeFunc("cube_replica_wal_lag_seq",
		"Committed batches the leader is ahead of this WAL-shipped follower (0 when caught up or not following).",
		func() int64 {
			lead := s.followLeaderSeq.Load()
			if have := s.Seq(); lead > have {
				return int64(lead - have)
			}
			return 0
		})
	reg.GaugeFunc("cube_replica_wal_lag_seconds",
		"Whole seconds since this follower last completed a WAL-ship fetch while behind the leader (0 when caught up or not following).",
		func() int64 {
			if s.followLeaderSeq.Load() <= s.Seq() {
				return 0
			}
			at := s.followProgress.Load()
			if at == 0 {
				return 0
			}
			return int64(time.Since(time.Unix(0, at)) / time.Second)
		})
	reg.GaugeFunc("cube_shard_lag_seq",
		"Committed batches the most-behind down remote shard is missing (0 when every shard is up; the leader's seq for a shard never synced).",
		func() int64 {
			var worst uint64
			have := s.seq.Load()
			for _, e := range s.remoteEngines {
				if at := e.Seq(); e.Down() && have > at {
					worst = max(worst, have-at)
				}
			}
			return int64(worst)
		})
	reg.GaugeFunc("cube_shard_lag_seconds",
		"Whole seconds the longest-down remote shard has been down (0 when every shard is up).",
		func() int64 {
			var worst int64
			for _, e := range s.remoteEngines {
				if at := e.DownSince(); !at.IsZero() {
					worst = max(worst, int64(time.Since(at)/time.Second))
				}
			}
			return worst
		})

	reg.GaugeFunc("cube_wal_last_append_age_seconds",
		"Whole seconds since the last durable WAL append (0 with no WAL or before the first append) — the leader-side staleness anchor for WAL shipping.",
		func() int64 {
			s.mu.RLock()
			l := s.wal
			s.mu.RUnlock()
			if l == nil {
				return 0
			}
			at := l.LastAppendNano()
			if at == 0 {
				return 0
			}
			return int64(time.Since(time.Unix(0, at)) / time.Second)
		})

	reg.GaugeFunc("cube_degraded",
		"1 while the server is in degraded read-only mode, 0 otherwise.",
		func() int64 {
			if s.health.Load().cause != nil {
				return 1
			}
			return 0
		})

	// The paper's §8 cost model, live: every evaluated query feeds its
	// Cells/Aux/Steps into per-op, per-engine histograms, so a scrape shows
	// the measured cost distribution of the running workload — the numbers
	// Table 1 and Figure 11 report offline.
	m.costCells = reg.HistogramVec("cube_query_cost_cells",
		"Data-cube cells read per query (§8 cost model).", 1, "op", "engine")
	m.costAux = reg.HistogramVec("cube_query_cost_aux",
		"Auxiliary precomputed entries read per query (§8 cost model).", 1, "op", "engine")
	m.costSteps = reg.HistogramVec("cube_query_cost_steps",
		"Combining operations per query (§8 cost model).", 1, "op", "engine")

	reg.GaugeFunc("cube_server_seq",
		"Sequence number of the last applied update batch.",
		func() int64 { return int64(s.Seq()) })
	return m
}

// liveRouter returns the router under the read lock: a /state push may
// replace it, and scrape callbacks run on their own goroutines.
func (s *Server) liveRouter() *shard.Router {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.router
}

// pinCostObservers resolves the per-op cost observers against the router's
// engine labels. Called once the router exists; a /state push rebuilds the
// router with the same shard count, so the labels stand.
func (m *serverMetrics) pinCostObservers(s *Server) {
	obs := make(map[string]metrics.Observer, 5)
	for _, op := range ops {
		eng := "volume" // count is answered from the region's geometry alone
		if op.name != "count" {
			eng = op.rop.Engine(s.opts.BlockSize, s.router.Shards() > 1)
		}
		obs[op.name] = costObserver{
			cells: m.costCells.With(op.name, eng),
			aux:   m.costAux.With(op.name, eng),
			steps: m.costSteps.With(op.name, eng),
		}
	}
	m.costObs = obs
}

// costObserver bridges one query's metrics.Counter into the §8 histograms.
type costObserver struct {
	cells, aux, steps *telemetry.Histogram
}

func (o costObserver) ObserveCost(cells, aux, steps int64) {
	o.cells.Observe(cells)
	o.aux.Observe(aux)
	o.steps.Observe(steps)
}

// RequestIDFrom returns the request's correlation ID, or "" outside the
// middleware (direct handler tests). The ID lives in the trace package's
// context slot so internal/client can forward it on sub-requests without
// importing this package.
func RequestIDFrom(ctx context.Context) string {
	return trace.RequestID(ctx)
}

// clientRequestID returns a client-supplied X-Request-Id if it is sane —
// bounded length, characters that cannot corrupt a log line or a JSON
// string — and "" otherwise.
func clientRequestID(v string) string {
	if v == "" || len(v) > 64 {
		return ""
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return ""
		}
	}
	return v
}

// newRequestID mints a process-unique correlation ID: a random per-server
// prefix plus a sequence number, cheap enough for every request and unique
// across restarts without coordination.
func (s *Server) newRequestID() string {
	return s.ridPrefix + strconv.FormatUint(s.ridSeq.Add(1), 10)
}

// ridPrefix generates the per-server random prefix.
func ridPrefix() string {
	var b [4]byte
	rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b[:]) + "-"
}
