package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rangecube/internal/wal"
)

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
	// Reason is the first fault of the degraded episode, or "commit
	// panicked" once a commit has; "" when healthy.
	Reason string `json:"reason,omitempty"`
	Seq    uint64 `json:"seq"`
	// WALFaults / WALRepairs / Recoveries mirror the cube_wal_faults_total,
	// cube_wal_repairs_total and cube_storage_recoveries_total counters.
	WALFaults  uint64 `json:"wal_faults"`
	WALRepairs uint64 `json:"wal_repairs"`
	Recoveries uint64 `json:"recoveries"`
	// ReplicaLagSeq is how many committed batches the leader is ahead of
	// this WAL-shipped (-join) follower; 0 when caught up or not following.
	// Mirrors cube_replica_wal_lag_seq, readable without a metrics scrape.
	ReplicaLagSeq uint64 `json:"replica_lag_seq,omitempty"`
}

// health is the server's availability, one immutable value that
// Server.health publishes whole, so every reader sees one state. Degraded
// read-only mode is the server's answer to a disk it can no longer trust. A
// poisoned WAL (a storage fault the log's rewind-and-retry repair could not
// clear) means updates have lost their durability guarantee, but every
// acknowledged batch is still applied and on the committed prefix. So the
// server keeps serving queries and sheds writes (refuseWrite), and the
// storage loop, woken as the mode flips, rebuilds durability (a fresh
// snapshot, then a new WAL superseding the poisoned one) on a backoff until
// it succeeds. cause is the first fault of the current degraded episode, nil
// while writable; a commit panic replaces it with errCommitPanicked.
type health struct {
	cause    error
	draining bool
}

// halfApplied reports whether a commit panicked (see errCommitPanicked).
func (h health) halfApplied() bool { return h.cause == errCommitPanicked }

// event is one health transition: a fault (cause: a poisoned log's error or
// errCommitPanicked), a storage recovery, or else a drain toggle to draining.
type event struct {
	cause     error
	recovered bool
	draining  bool
}

// next is the server's one health transition function. It does no I/O.
func next(h health, e event) health {
	switch {
	case e.cause != nil:
		if h.cause == nil || e.cause == errCommitPanicked {
			h.cause = e.cause
		}
	case e.recovered:
		if !h.halfApplied() {
			h.cause = nil
		}
	default:
		h.draining = e.draining
	}
	return h
}

// transition publishes next(current, e) with one compare-and-swap loop, then
// logs a change of cause; entering degraded mode wakes the storage loop.
func (s *Server) transition(e event) {
	for {
		old := s.health.Load()
		if h := next(*old, e); s.health.CompareAndSwap(old, &h) {
			switch {
			case h.cause == old.cause:
			case h.cause == nil:
				s.logf("server: storage recovered, leaving degraded mode")
			default:
				s.logf("server: entering degraded read-only mode: %v", h.cause)
				s.storage.wake()
			}
			return
		}
	}
}

// Health reports the server's current availability state.
func (s *Server) Health() Health {
	hs := s.health.Load()
	h := Health{
		Degraded:      hs.cause != nil,
		Draining:      hs.draining,
		AwaitingState: s.awaitingState.Load(),
		Seq:           s.Seq(),
		WALFaults:     uint64(s.met.walMet.Faults.Value()),
		WALRepairs:    uint64(s.met.walMet.Repairs.Value()),
		Recoveries:    uint64(s.met.recoveries.Value()),
	}
	if h.Degraded {
		h.Reason = hs.cause.Error()
	}
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
func (s *Server) SetDraining(v bool) { s.transition(event{draining: v}) }

// refuseWrite is why the server takes no update now, nil when it takes one:
// a replica never does (ErrReadOnly), a degraded server not until its storage
// recovers (ErrDegraded with the episode's first cause).
func (s *Server) refuseWrite() error {
	switch c := s.health.Load().cause; {
	case s.readOnly && s.leaderURL != "":
		return fmt.Errorf("%w (leader: %s)", ErrReadOnly, s.leaderURL)
	case s.readOnly:
		return ErrReadOnly
	case c != nil:
		return fmt.Errorf("%w: %v", ErrDegraded, c)
	}
	return nil
}

// ceilSeconds rounds d up to whole seconds, clamped to [1, 30] — the range
// a Retry-After header is useful in.
func ceilSeconds(d time.Duration) int {
	return min(max(int((d+time.Second-1)/time.Second), 1), 30)
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
// returns b's next wait; otherwise the loop sleeps until transition wakes
// it, so a healthy server never runs this. The loop only exists with a WAL
// and a snapshot path, the storage a recovery rebuilds.
func (s *Server) probeStorage(b *backoff) time.Duration {
	if h := s.health.Load(); h.cause == nil || h.halfApplied() {
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
		s.transition(event{recovered: true})
	}
	return err
}
