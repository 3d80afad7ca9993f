package server

import "rangecube/internal/shard"

// poisonDelivery queues a commit whose one cell has no coordinates, so the
// sender's next delivery panics inside Router.Deliver. It carries the
// leader's seq, which is already delivered: no read waits on it.
func (s *Server) poisonDelivery() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.send.mu.Lock()
	s.send.queue = append(s.send.queue, shard.Commit{Seq: s.seq, Cells: []shard.PointDelta{{}}})
	s.send.mu.Unlock()
	s.send.wake <- struct{}{}
}
