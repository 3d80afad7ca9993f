// Command cubeserver serves an OLAP data cube over HTTP: it loads CSV
// records (inferring the schema like cubeql), precomputes the range-query
// structures, and answers concurrent range queries with batched updates —
// the deployment shape of the paper's model.
//
//	cubegen -rows 100000 > records.csv
//	cubeserver -data records.csv -measure revenue -addr :8080 &
//	curl 'localhost:8080/schema'
//	curl 'localhost:8080/query?op=sum&age=37..52&year=1988..1996&type=auto'
//	curl 'localhost:8080/query?op=max&state=CA..TX'
//	curl -X POST localhost:8080/query/batch -d '[{"op":"sum","select":{"age":"37..52"}},{"op":"max"}]'
//	curl -X POST localhost:8080/update -d '{"updates":[{"coords":[0,0,0,0],"delta":5}]}'
//
// With -wal and -snapshot the server is crash-safe: update batches are
// fsynced to the write-ahead log before they apply, the cube is snapshotted
// (checksummed, atomically rotated) every -compact-every batches, and on
// boot the snapshot plus the WAL's committed prefix reconstruct the exact
// pre-crash state. SIGINT/SIGTERM drain in-flight requests, checkpoint, and
// exit cleanly.
//
// Updates flow through an ingestion pipeline (-ingest-queue): concurrent
// /update writers are coalesced through the §5 update model and committed
// as one WAL batch with one fsync per group. An update is acked with 200
// after its group's fsync, or with 202 at enqueue if it asks
// ?durability=async (a later sync ack implies every earlier async
// submission committed); a full queue sheds with 429.
//
// Storage faults do not kill the server: a WAL append that fails is rewound
// and retried once; if the log cannot be repaired it is poisoned and the
// server degrades to read-only — queries keep serving, updates shed with
// 503 + Retry-After — while a background probe rebuilds durability from a
// fresh snapshot and WAL (at once, then backing off to once a second), then
// re-admits writes. GET /healthz answers 200 whenever the process serves
// queries; GET /readyz answers 200 only when updates are accepted too
// (degraded or draining → 503), which is the endpoint load balancers and
// orchestrator readiness gates should watch.
//
// Observability: -metrics (default on) mounts GET /metrics with the
// Prometheus text exposition — per-route latency histograms, shed/timeout
// counters, WAL series, and the paper's §8 cost histograms per op
// and engine. -access-log logs one line per request with its correlation ID
// (X-Request-Id, accepted or minted, echoed on every response and error
// body). -debug-addr serves /debug/pprof and /debug/vars on a separate
// listener so profiling never competes with — or is shed by — the serving
// port:
//
//	cubeserver -data records.csv -debug-addr localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//	curl -s localhost:8080/metrics | grep cube_query_cost
//
// Distributed tracing: -trace-sample (default 1%) records per-request span
// trees — router decompose, per-shard scatter including hedges and
// down-marking, commit WAL/scatter/apply phases — into a fixed-size ring
// served at GET /debug/traces. Slow (-slow-query), partial and error
// requests are always kept, and each slow request additionally logs a
// greppable "slow-query:" exemplar line. Trace IDs propagate to shard
// processes over X-Trace-Id / X-Parent-Span, so one batched query's spans
// across the whole tier share a trace ID (also echoed on the response and
// in the access log as trace=).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "cubeserver: %v\n", err)
		os.Exit(1)
	}
}

// serverFlags registers on fs every flag that sets a server.Options field
// directly, and returns the function that builds those Options once fs is
// parsed.
func serverFlags(fs *flag.FlagSet) func() server.Options {
	block := fs.Int("block", 1, "block size b of the range-sum structure: 1 = the §3 prefix-sum array, larger = the §4 blocked array (b^d times smaller, cheaper updates, boundary scans per sum)")
	walPath := fs.String("wal", "", "write-ahead log path (durability off when empty)")
	snapPath := fs.String("snapshot", "", "snapshot path for compaction and recovery")
	compactEvery := fs.Int("compact-every", 64, "snapshot and truncate the WAL every N batches")
	maxInflight := fs.Int("max-inflight", 64, "max concurrent requests (queries and updates) before shedding with 429 (0 = unlimited)")
	queryTimeout := fs.Duration("query-timeout", 10*time.Second, "per-query deadline (0 = none)")
	shardTimeout := fs.Duration("shard-timeout", 2*time.Second, "per-sub-query deadline against a remote shard; a shard silent for a twentieth of it gets one hedged duplicate of the read or update record")
	ingestQueue := fs.Int("ingest-queue", 256, "ingestion pipeline queue depth; concurrent /update writers group-commit with one fsync per flushed group")
	metrics := fs.Bool("metrics", true, "serve the Prometheus exposition at GET /metrics")
	accessLog := fs.Bool("access-log", false, "log one line per request (method, path, status, bytes, latency, request ID, shard fan-out, trace ID when sampled)")
	traceSample := fs.Float64("trace-sample", 0.01, "fraction of requests traced into GET /debug/traces; slow, partial and error requests are always kept (0 = tracing off)")
	slowQuery := fs.Duration("slow-query", 250*time.Millisecond, "requests at or over this latency log a slow-query exemplar line and are always traced (0 = off)")
	return func() server.Options {
		opts := server.Options{
			BlockSize:    *block,
			WALPath:      *walPath,
			SnapshotPath: *snapPath,
			CompactEvery: *compactEvery,
			MaxInflight:  *maxInflight,
			QueryTimeout: *queryTimeout,
			Metrics:      *metrics,
			AccessLog:    *accessLog,
			TraceSample:  *traceSample,
			SlowQuery:    *slowQuery,
			IngestQueue:  *ingestQueue,
			ShardTimeout: *shardTimeout,
		}
		// These flags' contract is "0 = off"; the options reserve 0 for their
		// defaults and disable only on negative.
		if *traceSample == 0 {
			opts.TraceSample = -1
		}
		if *slowQuery == 0 {
			opts.SlowQuery = -1
		}
		return opts
	}
}

func run() error {
	data := flag.String("data", "", "CSV file with a header row")
	measure := flag.String("measure", "revenue", "name of the integer measure column")
	addr := flag.String("addr", ":8080", "listen address")
	options := serverFlags(flag.CommandLine)
	shardURLs := flag.String("shard-urls", "", "comma-separated base URLs of shard processes; the leader slab-partitions the cube along its widest dimension, pushes each its slab and scatter–gathers queries across them")
	serveShard := flag.Int("serve-shard", -1, "run as shard process N: boot empty, await the leader's slab push on POST /state (-data not required)")
	join := flag.String("join", "", "run as a read-only follower of the leader at this URL, bootstrapping from /snapshot and tailing /wal (-data not required)")
	drain := flag.Duration("drain", 10*time.Second, "grace period for in-flight requests on shutdown")
	debugAddr := flag.String("debug-addr", "", "separate listener for /debug/pprof and /debug/vars (off when empty)")
	flag.Parse()
	opts := options()
	if *serveShard >= 0 && *join != "" {
		return errors.New("-serve-shard and -join are exclusive modes")
	}
	if *data == "" && *serveShard < 0 && *join == "" {
		fmt.Fprintln(os.Stderr, "cubeserver: -data is required (generate one with cubegen), unless running as -serve-shard or -join")
		os.Exit(2)
	}
	if opts.SnapshotPath != "" && opts.WALPath == "" {
		return errors.New("-snapshot requires -wal (a snapshot alone cannot make updates durable)")
	}
	if *serveShard >= 0 && opts.WALPath != "" {
		return errors.New("-serve-shard takes no -wal or -snapshot (a shard's slab is pushed by the leader, which logs every update)")
	}

	// The cube: inferred from the CSV in leader mode; a shard process boots a
	// one-cell placeholder and waits for the leader's slab push; a follower
	// bootstraps from the leader's snapshot inside JoinLeader.
	var c *cube.Cube
	n := 0
	if *data != "" {
		f, err := os.Open(*data)
		if err != nil {
			return err
		}
		c, n, err = cube.InferCSV(f, *measure)
		f.Close()
		if err != nil {
			return err
		}
	} else if *serveShard >= 0 {
		c = cube.New(cube.NewIntDimension("d0", 0, 0))
	}

	if *shardURLs != "" {
		if *serveShard >= 0 || *join != "" {
			return errors.New("-shard-urls is a leader flag; it cannot combine with -serve-shard or -join")
		}
		for _, u := range strings.Split(*shardURLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				opts.ShardURLs = append(opts.ShardURLs, strings.TrimRight(u, "/"))
			}
		}
	}
	if *serveShard >= 0 {
		// Shard process: its slab is derived state the leader regenerates on
		// every attach, so it accepts wholesale /state pushes, sheds queries
		// until the first one lands, and takes updates only as the leader's
		// records.
		opts.AcceptState = true
	}
	var srv *server.Server
	var err error
	if *join != "" {
		jctx, jcancel := context.WithTimeout(context.Background(), 30*time.Second)
		srv, err = server.JoinLeader(jctx, *join, opts)
		jcancel()
	} else {
		srv, err = server.NewWithOptions(c, opts)
	}
	if err != nil {
		return err
	}

	var ds *http.Server
	if *debugAddr != "" {
		// Profiling gets its own mux on its own listener: it must never be
		// shed by the admission semaphore, and the serving port must never
		// expose pprof. The standard routes are registered explicitly so
		// nothing else rides along on a DefaultServeMux import. The listener
		// gets the same slow-loris guard as the serving port — a debug port
		// reachable by a misbehaving client is still a port — and is shut
		// down in the drain path rather than leaked until process exit.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		ds = &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 5 * time.Second,
			MaxHeaderBytes:    1 << 20,
		}
		go func() {
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "cubeserver: debug listener: %v\n", err)
			}
		}()
		fmt.Printf("cubeserver: pprof and expvar on http://%s/debug/\n", *debugAddr)
	}

	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// A client that sends headers at a trickle (or not at all) must not
		// pin a connection forever.
		ReadHeaderTimeout: 5 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	switch {
	case *join != "":
		fmt.Printf("cubeserver: following %s (seq %d); listening on %s\n", *join, srv.Seq(), *addr)
	case *serveShard >= 0:
		fmt.Printf("cubeserver: shard %d awaiting state push; listening on %s\n", *serveShard, *addr)
	default:
		fmt.Printf("cubeserver: %d records in a %v cube (seq %d); listening on %s\n",
			n, c.Shape(), srv.Seq(), *addr)
	}

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Println("cubeserver: draining…")
	srv.SetDraining(true) // /readyz flips 503 so load balancers stop routing here
	stop()                // a second signal kills immediately instead of waiting out the drain
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "cubeserver: drain: %v\n", err)
	}
	if ds != nil {
		// An in-flight pprof profile is not worth holding the drain for.
		if err := ds.Shutdown(drainCtx); err != nil {
			ds.Close()
		}
	}
	// Checkpoint after the drain so the final snapshot includes every
	// request that completed; Close folds one in.
	if err := srv.Close(); err != nil {
		return fmt.Errorf("checkpoint on shutdown: %w", err)
	}
	fmt.Println("cubeserver: clean shutdown")
	return nil
}
