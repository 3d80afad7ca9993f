package conformance

import (
	"os"
	"strings"

	"rangecube/internal/ndarray"
	"rangecube/internal/server"
)

// Env supplies the resources engine factories may need. The zero value is
// usable: temp directories come from os.MkdirTemp and are removed when the
// engine closes.
type Env struct {
	// TempDir returns a fresh private directory for one engine instance.
	// Tests pass t.TempDir; nil falls back to os.MkdirTemp + cleanup on
	// engine Close.
	TempDir func() (string, error)
}

func (e Env) tempDir() (string, func(), error) {
	if e.TempDir != nil {
		d, err := e.TempDir()
		return d, func() {}, err
	}
	d, err := os.MkdirTemp("", "cubeconform-*")
	if err != nil {
		return "", nil, err
	}
	return d, func() { os.RemoveAll(d) }, nil
}

// SumFactory builds one registered sum engine over a private copy of the
// seed cube.
type SumFactory struct {
	Name string
	New  func(env Env, a *ndarray.Array[int64]) (SumEngine, error)
}

// MaxFactory builds one registered max/min engine.
type MaxFactory struct {
	Name string
	New  func(env Env, a *ndarray.Array[int64]) (MaxEngine, error)
}

func simpleSum(name string, build func(a *ndarray.Array[int64]) SumEngine) SumFactory {
	return SumFactory{Name: name, New: func(_ Env, a *ndarray.Array[int64]) (SumEngine, error) {
		return build(a), nil
	}}
}

// DefaultSumEngines returns the full sum-side registry: the §3 prefix sum,
// the §4 blocked structure at several uniform block sizes plus a mixed
// per-dimension one, one of each again with edge arrays, the §8 sum tree at
// two fanouts, the §10 sparse cube, and the WAL-recovered HTTP server.
func DefaultSumEngines() []SumFactory {
	return []SumFactory{
		simpleSum("prefixsum", newPrefixSum),
		simpleSum("blocked/b=1", func(a *ndarray.Array[int64]) SumEngine { return newBlocked(a, 1) }),
		simpleSum("blocked/b=2", func(a *ndarray.Array[int64]) SumEngine { return newBlocked(a, 2) }),
		simpleSum("blocked/b=3", func(a *ndarray.Array[int64]) SumEngine { return newBlocked(a, 3) }),
		simpleSum("blocked/b=7", func(a *ndarray.Array[int64]) SumEngine { return newBlocked(a, 7) }),
		simpleSum("blocked/dims", func(a *ndarray.Array[int64]) SumEngine { return newBlockedDims(a, []int{1, 3, 2, 5}) }),
		simpleSum("blocked+edges/b=3", func(a *ndarray.Array[int64]) SumEngine { return newBlockedEdges("b=3", a, []int{3}) }),
		simpleSum("blocked+edges/dims", func(a *ndarray.Array[int64]) SumEngine { return newBlockedEdges("dims", a, []int{1, 3, 2, 5}) }),
		simpleSum("sumtree/b=2", func(a *ndarray.Array[int64]) SumEngine { return newSumTree(a, 2) }),
		simpleSum("sumtree/b=4", func(a *ndarray.Array[int64]) SumEngine { return newSumTree(a, 4) }),
		simpleSum("sparse", newSparse),
		// The serving stack at b = 1 (§3's P). Updates coalesce through the §5
		// update-class machinery and group-commit in one WAL fsync; sync acks
		// keep the harness's update→query ordering, so the coalesced answers
		// must stay bit-identical to the naive oracle.
		serverSum("server", false, nil),
		// /query/batch answering on the blocked index at b = 2: one read epoch
		// per batch and per-item error isolation.
		serverSum("server/batch", true, func(o *server.Options) { o.BlockSize = 2 }),
		// The slab-partitioned scatter–gather router, driven directly: sums
		// decompose into per-shard sub-ranges (split along the first and last
		// dimension respectively) and merge by §3 additivity; updates scatter
		// to the owning shards. Both must be bit-identical to every flat
		// engine above.
		SumFactory{Name: "sharded/2", New: func(_ Env, a *ndarray.Array[int64]) (SumEngine, error) {
			return newShardedSum(a, 0, 2)
		}},
		SumFactory{Name: "sharded/4", New: func(_ Env, a *ndarray.Array[int64]) (SumEngine, error) {
			return newShardedSum(a, -1, 4)
		}},
		// The multi-process tier: the leader scatter–gathers over HTTP shard
		// servers it bootstraps by pushing slab state, and Checkpoint
		// crash-recovers the leader alone — the re-attach push must restore
		// exact answers against shards that lived through the crash.
		{Name: "remote-shard/2", New: func(env Env, a *ndarray.Array[int64]) (SumEngine, error) {
			return newRemoteShardVariant(env, a, 2)
		}},
		// The serving stack on a misbehaving disk: periodic injected WAL
		// faults (inline-repaired and poisoning alike) with degraded-mode
		// recovery in between — every acknowledged write must still match
		// the oracle bit for bit.
		{Name: "server/faulty-wal", New: func(env Env, a *ndarray.Array[int64]) (SumEngine, error) {
			dir, cleanup, err := env.tempDir()
			if err != nil {
				return nil, err
			}
			e, err := newFaultyWalVariant(a, dir)
			if err != nil {
				cleanup()
				return nil, err
			}
			return &cleanupEngine{SumEngine: e, cleanup: cleanup}, nil
		}},
	}
}

// serverSum wraps a serving-stack variant as a registry factory with temp
// directory management.
func serverSum(name string, batch bool, tune func(*server.Options)) SumFactory {
	return SumFactory{Name: name, New: func(env Env, a *ndarray.Array[int64]) (SumEngine, error) {
		dir, cleanup, err := env.tempDir()
		if err != nil {
			return nil, err
		}
		e, err := newServerVariant(a, dir, name, batch, tune)
		if err != nil {
			cleanup()
			return nil, err
		}
		return &cleanupEngine{SumEngine: e, cleanup: cleanup}, nil
	}}
}

// DefaultMaxEngines returns the max-side registry: §6 max trees at two
// fanouts and the MIN twin, then the same trees behind the shard router, in
// process and across HTTP.
func DefaultMaxEngines() []MaxFactory {
	mk := func(name string, build func(a *ndarray.Array[int64]) MaxEngine) MaxFactory {
		return MaxFactory{Name: name, New: func(_ Env, a *ndarray.Array[int64]) (MaxEngine, error) {
			return build(a), nil
		}}
	}
	return []MaxFactory{
		mk("maxtree/b=2", func(a *ndarray.Array[int64]) MaxEngine { return newMaxTree(a, 2) }),
		mk("maxtree/b=3", func(a *ndarray.Array[int64]) MaxEngine { return newMaxTree(a, 3) }),
		mk("mintree/b=2", func(a *ndarray.Array[int64]) MaxEngine { return newMinTree(a, 2) }),
		// Scatter–gather extremes: per-shard §6 trees folded in shard order
		// must agree with the flat trees on every region and update schedule.
		{Name: "sharded-max/3", New: func(_ Env, a *ndarray.Array[int64]) (MaxEngine, error) {
			return newShardedMax(a, 3, false)
		}},
		{Name: "sharded-min/3", New: func(_ Env, a *ndarray.Array[int64]) (MaxEngine, error) {
			return newShardedMax(a, 3, true)
		}},
		// Extremes over the wire: the leader folds two HTTP shard servers'
		// answers to its scatter frames, and Checkpoint crash-recovers it alone.
		{Name: "remote-shard-max/2", New: func(env Env, a *ndarray.Array[int64]) (MaxEngine, error) {
			return newRemoteShardMax(env, a, 2, false)
		}},
		{Name: "remote-shard-min/2", New: func(env Env, a *ndarray.Array[int64]) (MaxEngine, error) {
			return newRemoteShardMax(env, a, 2, true)
		}},
	}
}

// FilterSum keeps factories whose name contains any of the comma-separated
// patterns (empty keeps all).
func FilterSum(fs []SumFactory, patterns string) []SumFactory {
	if patterns == "" {
		return fs
	}
	var out []SumFactory
	for _, f := range fs {
		if matchAny(f.Name, patterns) {
			out = append(out, f)
		}
	}
	return out
}

// FilterMax is FilterSum for the max registry.
func FilterMax(fs []MaxFactory, patterns string) []MaxFactory {
	if patterns == "" {
		return fs
	}
	var out []MaxFactory
	for _, f := range fs {
		if matchAny(f.Name, patterns) {
			out = append(out, f)
		}
	}
	return out
}

func matchAny(name, patterns string) bool {
	for _, p := range strings.Split(patterns, ",") {
		if p = strings.TrimSpace(p); p != "" && strings.Contains(name, p) {
			return true
		}
	}
	return false
}

// cleanupEngine removes the engine's temp directory after Close.
type cleanupEngine struct {
	SumEngine
	cleanup func()
}

func (c *cleanupEngine) Checkpoint() error {
	if cp, ok := c.SumEngine.(Checkpointer); ok {
		return cp.Checkpoint()
	}
	return nil
}

func (c *cleanupEngine) Close() error {
	var err error
	if cl, ok := c.SumEngine.(Closer); ok {
		err = cl.Close()
	}
	c.cleanup()
	return err
}
