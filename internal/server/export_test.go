package server

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"rangecube/internal/shard"
)

// poisonDelivery queues a commit whose one cell has no coordinates, so the
// sender's next delivery panics inside Router.Deliver. It carries the
// leader's seq, which is already delivered: no read waits on it.
func (s *Server) poisonDelivery() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.send.mu.Lock()
	s.send.queue = append(s.send.queue, shard.Commit{Seq: s.seq, Cells: []shard.PointDelta{{}}})
	s.send.mu.Unlock()
	s.send.loop.wake()
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
