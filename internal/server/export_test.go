package server

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/ndarray"
	"rangecube/internal/shard"
	"rangecube/internal/wal"
)

// New builds a purely in-memory server over the cube with the given uniform
// block size for the blocked index and fanout for the max/min trees.
func New(c *cube.Cube, blockSize, fanout int) *Server {
	s, err := NewWithOptions(c, Options{BlockSize: blockSize, Fanout: fanout})
	if err != nil {
		panic(err)
	}
	return s
}

// serveOne is serve's frame over one route, h behind guards, at every path.
func (s *Server) serveOne(guards guard, h http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", route{h, guards})
	return s.serve(mux)
}

// poisonDelivery queues a commit whose one cell has no coordinates, so the
// sender's next delivery panics inside Router.Deliver. It carries the
// leader's seq, which is already delivered: no read waits on it.
func (s *Server) poisonDelivery() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.send.mu.Lock()
	s.send.queue = append(s.send.queue, wal.Batch{Seq: s.seq.Load(), Updates: []wal.Update{{}}})
	s.send.mu.Unlock()
	s.send.loop.wake()
}

// poisonApply swaps in a router over a one-cell cube, so that a commit to
// any other cell panics in its structure apply, under the write lock, before
// it writes a cell. restore puts the server's own router back.
func (s *Server) poisonApply() (restore func()) {
	shape := make([]int, len(s.cube.Shape()))
	for i := range shape {
		shape[i] = 1
	}
	m, err := shard.NewMap(shape, 0, 1)
	if err != nil {
		panic(err)
	}
	tiny, err := shard.NewRouter(ndarray.New[int64](shape...), m, 1, 2, "")
	if err != nil {
		panic(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	own := s.router
	s.router = tiny
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.router = own
	}
}

// storageRuns counts the storage loop's jobs, panicked or not.
func (s *Server) storageRuns() uint64 { return s.storage.runs.Load() }

// joinLeaderPanicking is joinLeader with a follow pump whose first job
// panics before it polls.
func joinLeaderPanicking(ctx context.Context, leaderURL string, opts Options, hc *http.Client) (*Server, error) {
	s, err := bootstrapFollower(ctx, leaderURL, opts, hc)
	if err != nil {
		return nil, err
	}
	var panicked atomic.Bool
	s.startLoop("follow pump", followPoll, func() time.Duration {
		if panicked.CompareAndSwap(false, true) {
			panic("injected into the follow pump")
		}
		return s.followJob()
	})
	return s, nil
}

// pump is a follower's follow pump, its one loop.
func (s *Server) pump() *loop { return s.loops[0] }
