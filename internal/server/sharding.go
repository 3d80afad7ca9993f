package server

import (
	"errors"
	"strconv"
	"sync/atomic"
	"time"

	"rangecube/internal/planner"
	"rangecube/internal/shard"
	"rangecube/internal/telemetry"
	"rangecube/internal/wal"
)

// The serving tier. The leader's query structures are always a shard.Router
// over the logical cube slab-partitioned along the planner-chosen dimension:
// one shard serving the cube's cells in place (Options.Shards <= 1),
// in-process slab copies answered by scatter–gather (Shards > 1), or remote
// shard processes (ShardURLs, remote.go). With Options.Followers > 0 the
// server additionally runs in-process read replicas fed by the WAL: each
// commit notifies per-replica pump goroutines that tail the log's committed
// prefix (the same bytes crash recovery replays) and apply each batch as one
// epoch; reads are then balanced across leader and followers, with a
// follower eligible only when it has applied everything committed at
// dispatch time — so a balanced read can never observe a torn epoch or a
// state older than one already acknowledged to a writer.

// replica is one follower and its serving-tier state: the notify channel
// its pump waits on and its pinned telemetry children.
type replica struct {
	f       *shard.Follower
	notify  chan struct{}
	lag     *telemetry.Gauge   // cube_replica_lag{replica=i}
	batches *telemetry.Counter // cube_replica_batches_total{replica=i}
}

// balancer picks which replica serves the next balanced read: a splitmix64
// stream over a seeded atomic counter. Seeding from the workload RNG's seed
// (cubeserver -balance-seed, the harness's -seed) makes the whole
// leader/follower assignment sequence replay deterministically, the
// workload.SeededGen convention — an unseeded pick would make every scaled
// run unreproducible.
type balancer struct {
	seed uint64
	ctr  atomic.Uint64
}

func newBalancer(seed uint64) *balancer {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15 // fixed default: deterministic without configuration
	}
	return &balancer{seed: seed}
}

// pick returns a value in [0, n): the next element of the seeded stream.
func (b *balancer) pick(n int) int {
	x := b.seed + b.ctr.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// pickFollower returns a follower eligible to serve a read, or nil
// when the read stays on the leader. Slot 0 of the balanced rotation is the
// leader itself (it holds the result cache, so it should keep a share); a
// picked follower is eligible only when its applied sequence has reached
// everything committed at this instant — the consistency gate: no balanced
// read ever sees state older than an acknowledged write.
func (s *Server) pickFollower() *replica {
	if s.balance == nil {
		return nil
	}
	// The rotation is cost-weighted, not uniform: a remote-sharded leader
	// answers a batch by decoding, scattering, gathering and re-encoding it
	// over loopback HTTP — measured at roughly six times a follower's local
	// evaluation — so treating it as just another replica would make it the
	// rotation's permanent straggler. Weighted round robin assigns shares
	// proportional to capacity: each follower takes six shares in that
	// tier, and the leader keeps a single share (it still holds the result
	// cache, and it is the fallback for every lagging follower).
	fw := 1
	if s.remoteEngines != nil {
		fw = 6
	}
	i := s.balance.pick(fw*len(s.followers) + 1)
	if i == 0 {
		return nil
	}
	r := s.followers[(i-1)%len(s.followers)]
	if r.f.AppliedSeq() < s.committed.Load() {
		s.met.replicaFallbacks.Inc()
		return nil
	}
	return r
}

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

// initSharding builds the router and the follower replicas (when
// Followers > 0). Called by NewWithOptions after recovery, so every
// structure is built over the recovered cells; the pumps start last.
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
	if s.opts.Followers <= 0 {
		return nil
	}
	if s.wal == nil {
		return errors.New("server: followers replicate the WAL, set WALPath")
	}
	s.walGen.Store(1)
	s.balance = newBalancer(s.opts.BalanceSeed)
	s.pumpStop = make(chan struct{})
	for i := 0; i < s.opts.Followers; i++ {
		// The recovered leader state is the cheapest snapshot: the follower
		// starts from it at the current sequence and resumes the WAL at its
		// committed end, so it boots caught up. NewFollower takes its array
		// over and a one-shard replica serves it in place, so that one gets a
		// copy (more shards copy their slabs anyway): a replica never shares
		// cells with its leader.
		base := s.cube.Data()
		if m.Shards() == 1 {
			base = base.Clone()
		}
		f, err := shard.NewFollower(i, base, s.seq, 1, s.walEnd.Load(),
			m, s.opts.BlockSize, s.opts.Fanout, s.opts.SumEngine)
		if err != nil {
			return err
		}
		label := strconv.Itoa(i)
		s.followers = append(s.followers, &replica{
			f:       f,
			notify:  make(chan struct{}, 1),
			lag:     s.met.replicaLag.With(label),
			batches: s.met.replicaBatches.With(label),
		})
	}
	for _, r := range s.followers {
		s.pumpWG.Add(1)
		go s.pumpLoop(r)
	}
	s.logf("server: %d follower replicas tailing %s", len(s.followers), s.opts.WALPath)
	return nil
}

// stopPumps terminates the replication pumps and waits for them; safe to
// call more than once and without followers.
func (s *Server) stopPumps() {
	if s.pumpStop == nil {
		return
	}
	s.pumpOnce.Do(func() { close(s.pumpStop) })
	s.pumpWG.Wait()
}

// notifyFollowers wakes every replication pump (non-blocking: a pump with a
// pending notification needs no second one). Called after each commit and
// after each WAL generation bump.
func (s *Server) notifyFollowers() {
	for _, r := range s.followers {
		select {
		case r.notify <- struct{}{}:
		default:
		}
	}
}

// replicaPollInterval is the pumps' fallback wake-up. Commits notify
// eagerly, so the ticker only matters after a missed edge (e.g. a WAL reset
// racing a scan) — it bounds how stale a follower can stay, it does not set
// the common-case lag.
const replicaPollInterval = 25 * time.Millisecond

func (s *Server) pumpLoop(r *replica) {
	defer s.pumpWG.Done()
	t := time.NewTicker(replicaPollInterval)
	defer t.Stop()
	for {
		select {
		case <-s.pumpStop:
			return
		case <-r.notify:
		case <-t.C:
		}
		s.syncFollower(r)
	}
}

// syncFollower advances one replica: re-bootstrap from the snapshot if the
// WAL generation moved (the log it was tailing was superseded by compaction
// or degraded-mode recovery), then apply the log's new committed prefix up
// to walEnd — the file itself may already hold the record of a commit that
// is durable but not yet applied here, and a replica ahead of its leader
// would break monotonic reads across balanced requests.
// The generation is re-checked after the scan: a reset that raced it could
// have let the scan resume mid-file in a regrown log, so the replica
// rebuilds from the snapshot — which, being always written before the log
// is truncated, contains everything the old log held.
func (s *Server) syncFollower(r *replica) {
	gen := s.walGen.Load()
	if r.f.Gen() != gen {
		if err := s.rebootFollower(r.f, gen); err != nil {
			s.logf("server: follower %d reboot: %v", r.f.ID(), err)
			return
		}
	}
	if _, err := r.f.CatchUp(s.opts.WALPath, s.walEnd.Load()); err != nil {
		s.logf("server: follower %d catch-up: %v", r.f.ID(), err)
		// wal.ErrTruncated (and any transient read failure) falls through to
		// the generation re-check below or the next tick.
	}
	if g := s.walGen.Load(); g != gen {
		if err := s.rebootFollower(r.f, g); err != nil {
			s.logf("server: follower %d reboot: %v", r.f.ID(), err)
			return
		}
		if _, err := r.f.CatchUp(s.opts.WALPath, s.walEnd.Load()); err != nil {
			s.logf("server: follower %d catch-up: %v", r.f.ID(), err)
		}
	}
	lag := int64(s.committed.Load()) - int64(r.f.AppliedSeq())
	if lag < 0 {
		lag = 0
	}
	r.lag.Set(lag)
}

// rebootFollower rebuilds a replica from the on-disk snapshot and tags it
// with the WAL generation it will tail from the first record. Compaction
// and recovery both write the snapshot before superseding the log, so the
// snapshot plus the new log's prefix is always the complete state.
func (s *Server) rebootFollower(f *shard.Follower, gen uint64) error {
	if s.opts.SnapshotPath == "" {
		// Unreachable in practice: the WAL generation only moves on
		// compaction or recovery, both of which require a snapshot path.
		return errors.New("server: follower reboot requires a snapshot path")
	}
	a, seq, err := shard.LoadSnapshot(s.opts.SnapshotPath, s.cube.Shape())
	if err != nil {
		return err
	}
	return f.Rebase(a, seq, gen, 0)
}

// publishWALReset records that the WAL was truncated or recreated: replicas
// must not trust their byte offsets into it anymore. The caller holds
// commitMu, and the snapshot that supersedes the old log contents is
// durable. The new (generation, end) pair is stored under the write lock so
// no read epoch pairs one log's offset with the other's generation.
func (s *Server) publishWALReset() {
	s.mu.Lock()
	s.walEnd.Store(wal.HeaderSize)
	s.walGen.Add(1)
	s.mu.Unlock()
	s.notifyFollowers()
}
