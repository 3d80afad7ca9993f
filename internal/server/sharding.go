package server

import (
	"rangecube/internal/ndarray"
	"rangecube/internal/shard"
	"rangecube/internal/wal"
)

// The serving tier. The server's query structures are always a shard.Router
// over the logical cube: one shard serving the cube's cells in place, or
// remote shard processes (ShardURLs, remote.go) holding the slabs of the cube
// partitioned along its widest dimension. Read replicas are separate
// processes that follow the leader's WAL over HTTP (replication.go).

// buildRouter partitions the cube and builds the router over its current
// cells: remote engines when ShardURLs is set (one shard per URL), else a
// single in-process shard serving the cube's array in place.
func (s *Server) buildRouter() error {
	n := max(len(s.opts.ShardURLs), 1)
	shape := s.cube.Shape()
	m, err := shard.NewMap(shape, ndarray.WidestDim(shape), n)
	if err != nil {
		return err
	}
	if len(s.opts.ShardURLs) > 0 {
		// Remote tier: every shard is a cubeserver process spoken to over
		// HTTP through the same Engine contract the in-process engine serves.
		return s.initRemoteSharding(m)
	}
	s.router, err = shard.NewRouter(s.cube.Data(), m, s.opts.BlockSize, s.opts.Fanout, "")
	return err
}

// publishWALReset records that the WAL was truncated or recreated: it now
// starts after the current seq, so GET /wal answers 410 to a follower behind
// it. The caller holds commitMu, and the snapshot that supersedes the old log
// contents is durable. The new end and index are stored under the write lock
// so no read epoch pairs one log's end with the other's offsets.
func (s *Server) publishWALReset() {
	s.mu.Lock()
	s.walEnd.Store(wal.HeaderSize)
	s.walBase = s.seq.Load()
	s.walOffs = s.walOffs[:0]
	s.mu.Unlock()
}
