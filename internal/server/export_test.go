package server

import (
	"context"
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

// joinLeaderPanicking is JoinLeader with a follow pump whose first job panics
// before it polls. It returns the pump's loop too.
func joinLeaderPanicking(ctx context.Context, leaderURL string, opts Options) (*Server, *loop, error) {
	s, err := bootstrapFollower(ctx, leaderURL, opts)
	if err != nil {
		return nil, nil, err
	}
	poll := s.followJob()
	var panicked atomic.Bool
	l := s.startLoop("follow pump", followPoll, func() time.Duration {
		if panicked.CompareAndSwap(false, true) {
			panic("injected into the follow pump")
		}
		return poll()
	})
	return s, l, nil
}
