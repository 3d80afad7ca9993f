package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"rangecube/internal/client"
	"rangecube/internal/cube"
	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/shard"
	"rangecube/internal/wal"
)

// WAL shipping over HTTP: GET /wal?from=<offset>&gen=<generation> streams
// the log's committed prefix from a byte offset, so a remote follower
// resumes replication from wherever it left off. The generation token is
// the correctness hinge — compaction and degraded-mode recovery truncate
// and regrow the log, after which old byte offsets silently point at
// different records; the bumped generation turns that silent corruption
// into an explicit 410 that sends the follower back to /snapshot.

// ErrReadOnly rejects writes submitted to a read-only follower.
var ErrReadOnly = errors.New("server: read-only follower, updates go to the leader")

// Replication response headers: the WAL generation the body belongs to, the
// byte range it covers, and the sequence committed at capture time.
const (
	hdrWALGen  = "X-Cube-Wal-Gen"
	hdrWALFrom = "X-Cube-Wal-From"
	hdrWALSize = "X-Cube-Wal-Size"
	hdrSeq     = "X-Cube-Seq"
)

// followFetchTimeout bounds one follower poll (WAL fetch or snapshot
// re-bootstrap).
const followFetchTimeout = 30 * time.Second

// drainBody releases an HTTP response for connection reuse.
func drainBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// handleWALFetch streams the WAL's applied prefix from ?from=<offset>.
// The end offset, sequence and generation are captured under one read
// epoch: a commit publishes walEnd in the write-lock hold that applies its
// batch, so everything below it is a whole, fsynced record this server
// already shows — the file may hold one more, durable but unapplied, which
// must not ship yet. The stream itself runs unlocked from a private
// file handle; if a compaction truncates the log mid-stream the reader gets
// a short body, applies the clean prefix, and its next poll turns into a
// 410 re-bootstrap.
func (s *Server) handleWALFetch(w http.ResponseWriter, r *http.Request) {
	if s.opts.WALPath == "" {
		s.writeError(w, r, http.StatusNotFound, "no write-ahead log configured")
		return
	}
	s.mu.RLock()
	size := s.walEnd.Load()
	seq := s.seq
	gen := s.walGen.Load()
	s.mu.RUnlock()

	from := wal.HeaderSize
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			s.writeError(w, r, http.StatusBadRequest, "bad from offset %q", v)
			return
		}
		if n > from {
			from = n
		}
	}
	w.Header().Set(hdrWALGen, strconv.FormatUint(gen, 10))
	if v := r.URL.Query().Get("gen"); v != "" {
		g, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad generation %q", v)
			return
		}
		if g != gen {
			s.writeError(w, r, http.StatusGone, "WAL generation %d superseded by %d, re-bootstrap from /snapshot", g, gen)
			return
		}
	}
	if from > size {
		s.writeError(w, r, http.StatusGone, "offset %d past the log end %d, re-bootstrap from /snapshot", from, size)
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
	w.Header().Set(hdrWALFrom, strconv.FormatInt(from, 10))
	w.Header().Set(hdrWALSize, strconv.FormatInt(size, 10))
	w.Header().Set(hdrSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size-from, 10))
	w.WriteHeader(http.StatusOK)
	if _, err := io.CopyN(w, f, size-from); err != nil {
		s.logf("server: /wal stream rid=%s: %v", RequestIDFrom(r.Context()), err)
	}
}

// handleSnapshotFetch serves the full cube state as a snapshot, stamped
// with the WAL generation and applied end offset captured in the same read
// epoch — the exact resume point for a follower that applies this snapshot:
// every record at or past that offset postdates these cells.
func (s *Server) handleSnapshotFetch(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	var b bytes.Buffer
	if err := persist.WriteSnapshot(&b, s.seq, s.cube.Data()); err != nil {
		s.mu.RUnlock()
		s.writeError(w, r, http.StatusInternalServerError, "encoding snapshot: %v", err)
		return
	}
	seq := s.seq
	gen := s.walGen.Load()
	wsize := max(s.walEnd.Load(), wal.HeaderSize) // 0 without a WAL
	s.mu.RUnlock()

	w.Header().Set(hdrWALGen, strconv.FormatUint(gen, 10))
	w.Header().Set(hdrWALSize, strconv.FormatInt(wsize, 10))
	w.Header().Set(hdrSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(b.Len()))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(b.Bytes()); err != nil {
		s.logf("server: /snapshot stream rid=%s: %v", RequestIDFrom(r.Context()), err)
	}
}

// ApplyReplicated applies a leader's WAL batches to this server in
// sequence order, each as one write epoch. Batches at or below the current
// sequence are skipped, so overlapping fetches (a snapshot resume racing a
// pending stream) are idempotent. Durability is the leader's: nothing is
// re-logged here. Every batch is checked against the cube's shape before any
// is applied: a batch naming a cell that does not exist, and every batch after
// it, is left unapplied with an error. It returns how many batches, from the
// first, this server now holds, applied here or skipped as already held.
func (s *Server) ApplyReplicated(batches []wal.Batch) (applied int, err error) {
	shape := s.cube.Shape() // immutable, as in SubmitUpdates
	valid := len(batches)
check:
	for i, b := range batches {
		for k, u := range b.Updates {
			if cerr := checkCoords(shape, u.Coords); cerr != nil {
				valid, err = i, fmt.Errorf("server: replicated batch seq %d, update %d: %w", b.Seq, k, cerr)
				break check
			}
		}
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	for _, b := range batches[:valid] {
		s.mu.Lock()
		if b.Seq <= s.seq {
			s.mu.Unlock()
			continue
		}
		cells := make([]shard.PointDelta, len(b.Updates))
		for i, u := range b.Updates {
			cells[i] = shard.PointDelta{Coords: u.Coords, Delta: u.Delta}
		}
		s.applyCellsLocked(context.Background(), cells)
		s.seq = b.Seq
		s.committed.Store(s.seq)
		s.mu.Unlock()
	}
	return valid, err
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
	leaderURL = strings.TrimRight(leaderURL, "/")
	opts.ReadOnly = true
	opts.LeaderURL = leaderURL
	// A follower holds derived state: no local durability, no remote
	// shards, and (being ReadOnly) no ingestion pipeline.
	opts.WALPath = ""
	opts.SnapshotPath = ""
	opts.ShardURLs = nil
	opts.AcceptState = false
	opts.AwaitState = false

	cl := client.New(client.Options{})
	var sch struct {
		Dimensions []struct {
			Name string `json:"name"`
			Size int    `json:"size"`
		} `json:"dimensions"`
	}
	if _, err := cl.DoJSON(ctx, http.MethodGet, leaderURL+"/schema", nil, &sch); err != nil {
		return nil, fmt.Errorf("server: joining %s: %w", leaderURL, err)
	}
	seq, cells, gen, wsize, err := fetchSnapshot(ctx, cl, leaderURL)
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
	c := cube.New(dims...)
	copy(c.Data().Data(), cells.Data())

	s, err := NewWithOptions(c, opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.seq = seq
	s.mu.Unlock()
	s.committed.Store(seq)
	// Seed the lag gauges: at join time the snapshot IS the leader's state,
	// so the follower starts caught up with a fresh progress stamp.
	s.followLeaderSeq.Store(seq)
	s.followProgress.Store(time.Now().UnixNano())
	s.startFollowPump(leaderURL, gen, wsize)
	s.logf("server: joined leader %s at seq %d (WAL gen %d, offset %d)", leaderURL, seq, gen, wsize)
	return s, nil
}

// fetchSnapshot retrieves the leader's current state plus the WAL resume
// point stamped on it.
func fetchSnapshot(ctx context.Context, cl *client.Client, leaderURL string) (seq uint64, cells *ndarray.Array[int64], gen uint64, wsize int64, err error) {
	resp, err := cl.Do(ctx, http.MethodGet, leaderURL+"/snapshot", nil)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, nil, 0, 0, fmt.Errorf("GET /snapshot: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	seq, cells, err = persist.ReadSnapshot(resp.Body)
	if err != nil {
		return 0, nil, 0, 0, fmt.Errorf("decoding snapshot: %w", err)
	}
	gen, _ = strconv.ParseUint(resp.Header.Get(hdrWALGen), 10, 64)
	wsize, _ = strconv.ParseInt(resp.Header.Get(hdrWALSize), 10, 64)
	if wsize < wal.HeaderSize {
		wsize = wal.HeaderSize
	}
	return seq, cells, gen, wsize, nil
}

// startFollowPump launches the WAL-shipping poll loop from the given
// generation and byte offset; Close stops it.
func (s *Server) startFollowPump(leaderURL string, gen uint64, offset int64) {
	cl := client.New(client.Options{MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 200 * time.Millisecond})
	s.tickers = append(s.tickers, startTicker(s.opts.FollowPoll, func() {
		gen, offset = s.followFetch(cl, leaderURL, gen, offset)
	}))
}

// followFetch performs one replication poll and returns the advanced
// (generation, offset) cursor. Transport errors leave the cursor where it
// was; a 410 means the log the cursor points into was superseded, and a batch
// this cube cannot apply means the log is not one it can follow, so in both
// cases the follower re-bootstraps from a fresh snapshot.
func (s *Server) followFetch(cl *client.Client, leaderURL string, gen uint64, offset int64) (uint64, int64) {
	ctx, cancel := context.WithTimeout(context.Background(), followFetchTimeout)
	defer cancel()
	u := fmt.Sprintf("%s/wal?from=%d&gen=%d", leaderURL, offset, gen)
	resp, err := cl.Do(ctx, http.MethodGet, u, nil)
	if err != nil {
		s.logf("server: follower fetch: %v", err)
		return gen, offset
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
		// A short or torn body decodes to its clean record prefix; the
		// cursor advances exactly past what was applied, so the remainder
		// is refetched next poll.
		batches, n, serr := wal.ScanStream(resp.Body)
		if len(batches) > 0 {
			// Root a span per applying poll (not per idle poll — those are
			// the steady state and would drown the ring) so catch-up work is
			// visible in /debug/traces alongside the leader's commits.
			sp := s.tracer.Root("follow.fetch")
			sp.Set("batches", strconv.Itoa(len(batches)))
			sp.Set("bytes", strconv.FormatInt(n, 10))
			applied, aerr := s.ApplyReplicated(batches)
			if aerr != nil {
				// The leader's log names a cell this cube does not have: the
				// stream past the last good batch cannot be applied, so start
				// over from the leader's state.
				sp.SetError(aerr.Error())
				sp.End()
				s.logf("server: follower apply: %v", aerr)
				for _, b := range batches[:applied] {
					offset += recordBytes(b)
				}
				return s.followRebootstrap(ctx, cl, leaderURL, gen, offset)
			}
			sp.End()
		}
		if serr != nil {
			s.logf("server: follower scan at offset %d: %v", offset, serr)
		}
		s.followProgress.Store(time.Now().UnixNano())
		return gen, offset + n
	case http.StatusGone:
		return s.followRebootstrap(ctx, cl, leaderURL, gen, offset)
	default:
		s.logf("server: follower fetch: unexpected status %s", resp.Status)
		return gen, offset
	}
}

// followRebootstrap re-bootstraps the follower and returns the cursor to
// resume from: the snapshot's, or (gen, offset) when that failed.
func (s *Server) followRebootstrap(ctx context.Context, cl *client.Client, leaderURL string, gen uint64, offset int64) (uint64, int64) {
	ngen, noff, err := s.rebootstrap(ctx, cl, leaderURL)
	if err != nil {
		s.logf("server: follower re-bootstrap: %v", err)
		return gen, offset
	}
	s.met.resyncFollower.Inc()
	s.followProgress.Store(time.Now().UnixNano())
	s.logf("server: follower re-bootstrapped (WAL gen %d, offset %d)", ngen, noff)
	return ngen, noff
}

// recordBytes is the length of b's record in the log: its frame and payload.
func recordBytes(b wal.Batch) int64 {
	p, _ := wal.EncodeBatch(b) // b was decoded from a record, so it encodes
	return wal.FrameSize + int64(len(p))
}

// rebootstrap refreshes the follower from the leader's snapshot after its
// WAL cursor was invalidated.
func (s *Server) rebootstrap(ctx context.Context, cl *client.Client, leaderURL string) (uint64, int64, error) {
	seq, cells, gen, wsize, err := fetchSnapshot(ctx, cl, leaderURL)
	if err != nil {
		return 0, 0, err
	}
	if err := s.resetState(seq, cells); err != nil {
		return 0, 0, err
	}
	return gen, wsize, nil
}
