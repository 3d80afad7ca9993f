package server

import (
	"rangecube/internal/planner"
	"rangecube/internal/shard"
	"rangecube/internal/wal"
)

// The serving tier. The server's query structures are always a shard.Router
// over the logical cube slab-partitioned along the planner-chosen dimension:
// one shard serving the cube's cells in place (Options.Shards <= 1),
// in-process slab copies answered by scatter–gather (Shards > 1), or remote
// shard processes (ShardURLs, remote.go). Read replicas are separate
// processes that follow the leader's WAL over HTTP (replication.go).

// buildRouter partitions the cube and builds the router over its current
// cells: remote engines when ShardURLs is set (one shard per URL), else
// Shards in-process ones, a single shard serving the cube's array in place.
func (s *Server) buildRouter() error {
	n := max(s.opts.Shards, 1)
	if len(s.opts.ShardURLs) > 0 {
		n = len(s.opts.ShardURLs)
	}
	shape := s.cube.Shape()
	m, err := shard.NewMap(shape, planner.SplitDimension(shape, nil), n)
	if err != nil {
		return err
	}
	if len(s.opts.ShardURLs) > 0 {
		// Remote tier: every shard is a cubeserver process spoken to over
		// HTTP through the same Engine contract the in-process slabs serve.
		return s.initRemoteSharding(m)
	}
	s.router, err = shard.NewRouter(s.cube.Data(), m, s.opts.BlockSize, s.opts.Fanout, s.opts.SumEngine)
	return err
}

// initSharding builds the router. Called by NewWithOptions after recovery,
// so every structure is built over the recovered cells.
func (s *Server) initSharding() error {
	if err := s.buildRouter(); err != nil {
		return err
	}
	m := s.router.Map()
	switch dim := s.cube.Dimension(m.Dim()).Name(); {
	case s.remoteEngines != nil:
		s.logf("server: %d remote shards along dimension %d (%s)", m.Shards(), m.Dim(), dim)
	case m.Shards() > 1:
		s.logf("server: sharded %d ways along dimension %d (%s)", m.Shards(), m.Dim(), dim)
	}
	return nil
}

// publishWALReset records that the WAL was truncated or recreated: -join
// followers must not trust their byte offsets into it anymore. The caller
// holds commitMu, and the snapshot that supersedes the old log contents is
// durable. The new (generation, end) pair is stored under the write lock so
// no read epoch pairs one log's offset with the other's generation.
func (s *Server) publishWALReset() {
	s.mu.Lock()
	s.walEnd.Store(wal.HeaderSize)
	s.walGen.Add(1)
	s.mu.Unlock()
}
