package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"rangecube/internal/client"
	"rangecube/internal/cube"
	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/wal"
)

// WAL shipping over HTTP: GET /wal?after=<seq> streams the leader's log
// records of every batch above seq, so a remote follower resumes from the one
// cursor it already holds, its own applied seq. The seq is also the
// correctness check: a follower applies only the batch numbered one past its
// own, so a stream that skips, repeats or mixes logs never advances it past a
// gap. When the leader's log no longer holds the batch after seq (a
// compaction truncated it), the leader answers 410 and the follower
// re-bootstraps from /snapshot.

// ErrReadOnly rejects writes submitted to a replica: a -join follower or a
// shard process.
var ErrReadOnly = errors.New("server: read-only replica, updates go to the leader")

// errSeqGap refuses a replicated batch that is not numbered one past the
// replica's seq.
var errSeqGap = errors.New("does not follow")

// hdrSeq stamps a replication response with the sequence committed at
// capture time.
const hdrSeq = "X-Cube-Seq"

// A follower polls its leader's /wal every followPoll; followFetchTimeout
// bounds one poll (WAL fetch or snapshot re-bootstrap).
const (
	followPoll         = 50 * time.Millisecond
	followFetchTimeout = 30 * time.Second
)

// drainBody releases an HTTP response for connection reuse.
func drainBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// handleWALFetch streams the log records of the batches above ?after=<seq>
// (default 0). The offset of batch after+1 is looked up in walOffs, and the
// end offset and sequence are captured, under one read epoch: a commit
// publishes walEnd and its record's offset in the write-lock hold that
// applies its batch, so everything below walEnd is a whole, fsynced record
// this server already shows — the file may hold one more, durable but
// unapplied, which must not ship yet. A log that does not hold batch after+1,
// or an after above this server's seq, answers 410. The stream itself runs
// unlocked from a private file handle: if a compaction truncates the log
// mid-stream the reader gets a short body, and if the log regrows under it
// the reader may get records of the new log at the old offsets. The follower
// applies only the batch after its own seq, so either way it holds a prefix
// of the leader's batches.
func (s *Server) handleWALFetch(w http.ResponseWriter, r *http.Request) {
	if s.opts.WALPath == "" {
		s.writeError(w, r, http.StatusNotFound, "no write-ahead log configured")
		return
	}
	var after uint64
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad after seq %q", v)
			return
		}
		after = n
	}
	s.mu.RLock()
	size, seq := s.walEnd.Load(), s.seq.Load()
	from := int64(-1) // the log holds no record of batch after+1
	if after == seq {
		from = size
	} else if i := after - s.walBase; i < uint64(len(s.walOffs)) { // after < walBase wraps past the slice
		from = s.walOffs[i]
	}
	s.mu.RUnlock()
	if from < 0 {
		s.writeError(w, r, http.StatusGone, "log holds no batch after seq %d (leader at seq %d), re-bootstrap from /snapshot", after, seq)
		return
	}

	f, err := os.Open(s.opts.WALPath)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "opening WAL: %v", err)
		return
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "seeking WAL: %v", err)
		return
	}
	w.Header().Set(hdrSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size-from, 10))
	w.WriteHeader(http.StatusOK)
	if _, err := io.CopyN(w, f, size-from); err != nil {
		s.logf("server: /wal stream rid=%s: %v", RequestIDFrom(r.Context()), err)
	}
}

// handleSnapshotFetch serves the full cube state as a snapshot. The seq
// inside it, also stamped as X-Cube-Seq, is the resume point of a follower
// that applies it: GET /wal?after=<seq> ships every later batch.
func (s *Server) handleSnapshotFetch(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	a, seq := s.cube.Data(), s.seq.Load()
	body := persist.EncodeSnapshot(seq, a, a.Bounds())
	s.mu.RUnlock()

	w.Header().Set(hdrSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.logf("server: /snapshot stream rid=%s: %v", RequestIDFrom(r.Context()), err)
	}
}

// ApplyReplicated applies a leader's WAL batches to this server in
// sequence order, each as one applyEpoch. Batches at or below the current
// sequence are skipped, so overlapping fetches (a snapshot resume racing a
// pending stream) are idempotent; any other batch must be numbered one past
// the current sequence, and is coalesced (wal.Coalesce) before it is
// applied. Durability is the leader's: nothing is re-logged here.
// Every batch is checked against the cube's shape before any is applied. A
// batch naming a cell that does not exist, or leaving a gap in the sequence,
// is left unapplied with an error, and so is every batch after it. An apply
// that panics is logged with its stack and returned as an error: the cube may
// hold part of that batch at the seq before it, which only a fresh state (a
// follower's re-bootstrap, a shard's /state resync) repairs. It returns how
// many batches, from the first, this server now holds, applied here or
// skipped as already held. A -join follower's pump and a shard's POST
// /shard/apply both land here.
func (s *Server) ApplyReplicated(batches []wal.Batch) (applied int, err error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	shape := s.cube.Shape() // a /state push, which may swap the cube, holds commitMu
	valid, err := checkReplicated(shape, batches)
	defer func() {
		if p := recover(); p != nil {
			s.logf("server: replicated batch seq %d panicked: %v\n%s", batches[applied].Seq, p, debug.Stack())
			err = fmt.Errorf("server: replicated batch seq %d: apply panicked: %v", batches[applied].Seq, p)
		}
	}()
	for ; applied < valid; applied++ {
		if b := batches[applied]; b.Seq > s.seq.Load() {
			if b.Seq != s.seq.Load()+1 {
				return applied, fmt.Errorf("server: replicated batch seq %d %w seq %d", b.Seq, errSeqGap, s.seq.Load())
			}
			// A leader's records name each cell once; any other record is
			// folded to that form here, as the engines' apply requires.
			b.Updates = wal.Coalesce(shape, b.Updates)
			s.applyEpoch(context.Background(), b, 0, 0)
		}
	}
	return valid, err
}

// checkReplicated returns how many of batches, from the first, name only cells
// of a cube of shape and follow the batch before by one seq, and why not more.
func checkReplicated(shape []int, batches []wal.Batch) (int, error) {
	for i, b := range batches {
		if i > 0 && b.Seq != batches[i-1].Seq+1 {
			return i, fmt.Errorf("server: replicated batch seq %d %w seq %d", b.Seq, errSeqGap, batches[i-1].Seq)
		}
		if err := checkUpdates(shape, b.Updates); err != nil {
			return i, fmt.Errorf("server: replicated batch seq %d, %w", b.Seq, err)
		}
	}
	return len(batches), nil
}

// JoinLeader builds a read-only follower of the cubeserver at leaderURL:
// it fetches the schema and a snapshot, boots a server over those cells,
// and starts a pump polling GET /wal for new committed batches. The
// follower answers queries from its own structures; updates are rejected
// with a pointer at the leader. Follower dimensions are canonical integer
// dimensions named after the leader's (value == rank) — category values do
// not ship with the snapshot, so range selectors on a followed cube are
// rank-domain.
func JoinLeader(ctx context.Context, leaderURL string, opts Options) (*Server, error) {
	return joinLeader(ctx, leaderURL, opts, newPeerClient())
}

// joinLeader is JoinLeader dialing through hc.
func joinLeader(ctx context.Context, leaderURL string, opts Options, hc *http.Client) (*Server, error) {
	s, err := bootstrapFollower(ctx, leaderURL, opts, hc)
	if err == nil {
		s.startLoop("follow pump", followPoll, s.followJob)
		s.logf("server: joined leader %s at seq %d", s.leaderURL, s.Seq())
	}
	return s, err
}

// bootstrapFollower is JoinLeader without the pump: a read-only server over
// the leader's current snapshot, dialing through hc.
func bootstrapFollower(ctx context.Context, leaderURL string, opts Options, hc *http.Client) (*Server, error) {
	leaderURL = strings.TrimRight(leaderURL, "/")
	// A follower holds derived state: no local durability, no remote
	// shards, and (being read-only) no ingestion pipeline.
	opts.WALPath = ""
	opts.SnapshotPath = ""
	opts.ShardURLs = nil
	opts.AcceptState = false

	cl := client.New(client.Options{HTTPClient: hc})
	var sch struct {
		Dimensions []struct {
			Name string `json:"name"`
			Size int    `json:"size"`
		} `json:"dimensions"`
	}
	if _, err := cl.DoJSON(ctx, http.MethodGet, leaderURL+"/schema", nil, &sch); err != nil {
		return nil, fmt.Errorf("server: joining %s: %w", leaderURL, err)
	}
	seq, cells, err := fetchSnapshot(ctx, cl, leaderURL)
	if err != nil {
		return nil, fmt.Errorf("server: joining %s: %w", leaderURL, err)
	}
	shape := cells.Shape()
	if len(sch.Dimensions) != len(shape) {
		return nil, fmt.Errorf("server: joining %s: schema has %d dimensions, snapshot has %d", leaderURL, len(sch.Dimensions), len(shape))
	}
	dims := make([]*cube.Dimension, len(shape))
	for j, n := range shape {
		name := sch.Dimensions[j].Name
		if name == "" {
			name = fmt.Sprintf("d%d", j)
		}
		dims[j] = cube.NewIntDimension(name, 0, n-1)
	}
	c := cube.Over(cells, dims...)

	s, err := newServer(c, opts, leaderURL, hc)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.seq.Store(seq)
	s.mu.Unlock()
	// Seed the lag gauges: at join time the snapshot IS the leader's state,
	// so the follower starts caught up with a fresh progress stamp.
	s.followLeaderSeq.Store(seq)
	s.followProgress.Store(time.Now().UnixNano())
	return s, nil
}

// fetchSnapshot retrieves the leader's current state and its seq.
func fetchSnapshot(ctx context.Context, cl *client.Client, leaderURL string) (seq uint64, cells *ndarray.Array[int64], err error) {
	resp, err := cl.Do(ctx, http.MethodGet, leaderURL+"/snapshot", nil)
	if err != nil {
		return 0, nil, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, nil, fmt.Errorf("GET /snapshot: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	seq, cells, err = persist.ReadSnapshotSized(resp.Body, resp.ContentLength)
	if err != nil {
		return 0, nil, fmt.Errorf("decoding snapshot: %w", err)
	}
	return seq, cells, nil
}

// followJob is the WAL-shipping follow pump's job: one poll, then followPoll
// until the next.
func (s *Server) followJob() time.Duration {
	s.followFetch()
	return followPoll
}

// followFetch performs one replication poll for the batches after this
// server's seq. A transport error leaves the follower where it was, for the
// next poll to retry. A 410 means the leader's log no longer reaches back to
// this seq, and a batch this cube cannot apply means the log is not one it
// can follow, so in both cases the follower re-bootstraps from a fresh
// snapshot.
func (s *Server) followFetch() {
	ctx, cancel := context.WithTimeout(context.Background(), followFetchTimeout)
	defer cancel()
	resp, err := s.peers.Do(ctx, http.MethodGet, fmt.Sprintf("%s/wal?after=%d", s.leaderURL, s.Seq()), nil)
	if err != nil {
		s.logf("server: follower fetch: %v", err)
		return
	}
	defer drainBody(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		// The leader stamps its committed sequence on every fetch; recording
		// it (plus the wall-clock instant of this successful poll) is what
		// feeds the cube_replica_wal_lag_* gauges.
		if lead, perr := strconv.ParseUint(resp.Header.Get(hdrSeq), 10, 64); perr == nil {
			s.followLeaderSeq.Store(lead)
		}
		// A short or torn body decodes to its clean record prefix; the next
		// poll asks for what follows the batches applied from it.
		batches, n, serr := wal.ScanStream(resp.Body)
		if len(batches) > 0 {
			// Root a span per applying poll (not per idle poll — those are
			// the steady state and would drown the ring) so catch-up work is
			// visible in /debug/traces alongside the leader's commits.
			sp := s.tracer.Root("follow.fetch")
			sp.Set("batches", strconv.Itoa(len(batches)))
			sp.Set("bytes", strconv.FormatInt(n, 10))
			if _, aerr := s.ApplyReplicated(batches); aerr != nil {
				// The stream past the last good batch cannot be applied, so
				// start over from the leader's state.
				sp.SetError(aerr.Error())
				sp.End()
				s.logf("server: follower apply: %v", aerr)
				s.rebootstrap(ctx)
				return
			}
			sp.End()
		}
		if serr != nil {
			s.logf("server: follower scan after seq %d: %v", s.Seq(), serr)
		}
		s.followProgress.Store(time.Now().UnixNano())
	case http.StatusGone:
		s.rebootstrap(ctx)
	default:
		s.logf("server: follower fetch: unexpected status %s", resp.Status)
	}
}

// rebootstrap replaces the follower's state with the leader's snapshot. On
// a failure the follower keeps its state and the next poll tries again.
func (s *Server) rebootstrap(ctx context.Context) {
	seq, cells, err := fetchSnapshot(ctx, s.peers, s.leaderURL)
	if err == nil {
		err = s.resetState(seq, cells)
	}
	if err != nil {
		s.logf("server: follower re-bootstrap: %v", err)
		return
	}
	s.met.resyncFollower.Inc()
	s.followProgress.Store(time.Now().UnixNano())
	s.logf("server: follower re-bootstrapped at seq %d", seq)
}
