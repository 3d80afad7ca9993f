package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"rangecube/internal/wal"
)

// Degraded read-only mode is the server's answer to a disk it can no longer
// trust. A poisoned WAL (a storage fault the log's rewind-and-retry repair
// could not clear) means updates have lost their durability guarantee, but
// nothing about the in-memory structures is wrong — every acknowledged
// batch is still applied and still on the committed prefix. So the server
// keeps serving queries and sheds writes: /update and SubmitUpdates return
// 503 + Retry-After, and the storage loop, woken as the mode flips, rebuilds
// durability from scratch (fresh snapshot capturing the full in-memory
// state, then a brand-new WAL file superseding the poisoned one) on a
// backoff until it succeeds, and exits degraded mode without a restart.

// ErrDegraded matches (with errors.Is) every submission rejected because
// the server is in degraded read-only mode.
var ErrDegraded = errors.New("server: degraded read-only mode, updates shed")

// errCommitPanicked is the degraded reason once a commit has panicked. No
// probe clears it: the cube may hold part of a batch the log holds whole, so
// only a restart, which replays the log, makes the server writable again.
var errCommitPanicked = errors.New("commit panicked")

// Health is the server's self-assessment, the /readyz response body and the
// introspection surface the chaos harness asserts against.
type Health struct {
	// Ready means the server is accepting its full API: not degraded, not
	// draining, not awaiting a state push, every remote shard up. /readyz
	// answers 200 iff Ready.
	Ready    bool `json:"ready"`
	Degraded bool `json:"degraded"`
	Draining bool `json:"draining"`
	// AwaitingState marks a shard process still holding its boot placeholder,
	// before the leader's first POST /state.
	AwaitingState bool `json:"awaiting_state,omitempty"`
	// ShardsDown lists remote shards currently marked down; their slabs
	// answer sum queries as partial and extremes as unavailable.
	ShardsDown []int `json:"shards_down,omitempty"`
	// Reason describes the fault that triggered degraded mode, "" when
	// healthy.
	Reason string `json:"reason,omitempty"`
	Seq    uint64 `json:"seq"`
	// WALFaults / WALRepairs / Recoveries mirror the cube_wal_faults_total,
	// cube_wal_repairs_total and cube_storage_recoveries_total counters
	// (0 when telemetry is disabled).
	WALFaults  uint64 `json:"wal_faults"`
	WALRepairs uint64 `json:"wal_repairs"`
	Recoveries uint64 `json:"recoveries"`
	// ReplicaLagSeq is how many committed batches the leader is ahead of
	// this WAL-shipped (-join) follower; 0 when caught up or not following.
	// Mirrors cube_replica_wal_lag_seq, readable without a metrics scrape.
	ReplicaLagSeq uint64 `json:"replica_lag_seq,omitempty"`
}

// Health reports the server's current availability state.
func (s *Server) Health() Health {
	h := Health{
		Degraded:   s.degraded.Load(),
		Draining:   s.draining.Load(),
		Seq:        s.Seq(),
		WALFaults:  uint64(s.met.walMet.Faults.Value()),
		WALRepairs: uint64(s.met.walMet.Repairs.Value()),
		Recoveries: uint64(s.met.recoveries.Value()),
	}
	if r, ok := s.degradedReason.Load().(string); ok && h.Degraded {
		h.Reason = r
	}
	h.AwaitingState = s.awaitingState.Load()
	if lead := s.followLeaderSeq.Load(); lead > h.Seq {
		h.ReplicaLagSeq = lead - h.Seq
	}
	for _, e := range s.remoteEngines {
		if e.Down() {
			h.ShardsDown = append(h.ShardsDown, e.Shard())
		}
	}
	h.Ready = !h.Degraded && !h.Draining && !h.AwaitingState && len(h.ShardsDown) == 0
	return h
}

// SetDraining marks the server as draining: /readyz flips to 503 so load
// balancers stop routing new work, while in-flight and straggler requests
// are still served. The graceful-shutdown path sets it before the HTTP
// listener begins its drain.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// enterDegraded flips the server into degraded read-only mode (idempotent;
// the first cause is the reported reason) and wakes the storage loop.
func (s *Server) enterDegraded(cause error) {
	s.degradedReason.Store(cause.Error())
	if s.degraded.CompareAndSwap(false, true) {
		s.logf("server: entering degraded read-only mode: %v", cause)
		s.storage.wake()
	}
}

func (s *Server) exitDegraded() {
	if s.degraded.CompareAndSwap(true, false) {
		s.logf("server: storage recovered, leaving degraded mode")
	}
}

// Degraded reports whether the server is currently shedding updates.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// writeDegraded sheds one update request: 503 with a Retry-After of one
// second, the storage loop's longest wait — a client retrying then has a
// real chance of landing on a recovered server.
func (s *Server) writeDegraded(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Retry-After", "1")
	reason := ""
	if v, ok := s.degradedReason.Load().(string); ok {
		reason = ": " + v
	}
	s.writeError(w, r, http.StatusServiceUnavailable, "degraded read-only mode, updates shed%s", reason)
}

// ceilSeconds rounds d up to whole seconds, clamped to [1, 30] — the range
// a Retry-After header is useful in.
func ceilSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// retryAfterHint estimates when the ingest queue will have room again:
// current depth times the median group-commit latency, rounded up to whole
// seconds and clamped to [1, 30]. Before any commit has been measured the
// estimate falls back to 1 second.
func (s *Server) retryAfterHint() string {
	depth := s.batcher.Depth()
	snap := s.met.ingestMet.CommitNanos.Snapshot()
	if depth == 0 || snap.Count == 0 {
		return "1"
	}
	wait := time.Duration(float64(depth) * snap.Quantile(0.5)) // nanoseconds
	return strconv.Itoa(ceilSeconds(wait))
}

// handleHealthz is the liveness probe: the process is up and the handler
// runs. It must never consult storage — a degraded server is alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz is the readiness probe: 200 with the Health body while the
// server accepts its full API, 503 (with Retry-After) while degraded or
// draining. Load balancers key on the status; operators read the body.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if !h.Ready {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, r, status, h)
}

// probeStorage is the storage loop's job: while degraded, rebuild
// durability under the commit mutex — queries keep being answered throughout
// — and, on success, exit degraded mode. Only a commit sets the mode and
// only this job (or Close, after stopping it) clears it. A failed attempt
// returns b's next wait; otherwise the loop sleeps until enterDegraded wakes
// it, so a healthy server never runs this. The loop only exists with a WAL
// and a snapshot path, the storage a recovery rebuilds.
func (s *Server) probeStorage(b *backoff) time.Duration {
	if !s.degraded.Load() || s.halfApplied.Load() {
		return idle // a snapshot now would make a half-applied batch durable
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := s.recoverStorageLocked(); err != nil {
		s.logf("server: degraded-mode recovery attempt failed: %v", err)
		return b.failed()
	}
	*b = 0
	return idle
}

// recoverStorageLocked supersedes a poisoned WAL; the caller holds commitMu.
// Order matters: first a fresh snapshot makes the entire in-memory state
// durable (every batch the poisoned log acked is applied in memory, so
// nothing depends on the old file once the snapshot lands); only then is the
// log file recreated, which truncates it. A failure at either step leaves
// the old WAL's committed prefix untouched and the server degraded for the
// storage loop's next attempt.
func (s *Server) recoverStorageLocked() error {
	if s.wal == nil {
		return errors.New("server: no WAL to recover")
	}
	if s.opts.SnapshotPath == "" {
		// Without a snapshot destination there is nowhere to rebuild
		// durability; the server stays degraded (still serving reads) until
		// an operator intervenes.
		return errors.New("server: recovery requires a snapshot path")
	}
	err := s.snapshotLocked("storage recovered with a fresh WAL", func() error {
		nl, err := wal.Create(s.opts.WALPath, s.opts.WALOpenFile)
		if err != nil {
			return err
		}
		nl.SetMetrics(&s.met.walMet)
		old := s.wal
		s.mu.Lock()
		s.wal = nl
		s.mu.Unlock()
		// The old handle shares the (now truncated) inode and is never
		// written again; its close error is cosmetic.
		if cerr := old.Close(); cerr != nil {
			s.logf("server: closing superseded WAL: %v", cerr)
		}
		return nil
	})
	if err == nil {
		s.met.recoveries.Inc()
		s.exitDegraded()
	}
	return err
}
