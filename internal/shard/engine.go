package shard

import (
	"context"
	"errors"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
)

// ErrShardDown marks a sub-query or scatter that could not reach its shard:
// the engine is a remote process that is unreachable, timed out past its
// hedge, or has been marked down pending a state resync. The router treats
// it specially — a down shard degrades a sum to a partial answer with §11
// bounds covering the absent slab, instead of failing the query.
var ErrShardDown = errors.New("shard: shard unavailable")

// Engine is one shard's serving surface as the router sees it: range sums
// (with the §11 bounds in the same call, so a remote shard costs one round
// trip), range extremes, and scattered update batches. All regions and
// coordinates are in the shard's local (slab) frame; the router owns the
// translation. Two implementations exist: localEngine (the paper's four
// structures over one slab, in process) and RemoteEngine (the same contract
// spoken over the HTTP query surface to a cubeserver process).
type Engine interface {
	// SumWithBounds answers the range sum and its §11 [lo, hi] bounds
	// together — the exact value plus the bounds a blocked index derives
	// without boundary scans.
	SumWithBounds(ctx context.Context, r ndarray.Region, c *metrics.Counter) (val, lo, hi int64, err error)
	// Sum answers the range sum alone.
	Sum(ctx context.Context, r ndarray.Region, c *metrics.Counter) (int64, error)
	// Extreme answers a range max (min=false) or min (min=true), reporting
	// the winning cell in local coordinates; ok=false means the region is
	// empty.
	Extreme(ctx context.Context, r ndarray.Region, min bool, c *metrics.Counter) (local []int, v int64, ok bool, err error)
	// Apply commits one scattered update batch (local coordinates). The
	// caller serializes Apply against queries.
	Apply(ctx context.Context, ups []batchsum.IntUpdate) error
	// CellBounds reports a conservative [lo, hi] interval containing every
	// current cell value in the slab. It never narrows under updates, so a
	// region of volume V missing from a partial answer contributes
	// [V·lo, V·hi] to the §11 interval marking the absent slab.
	CellBounds() (lo, hi int64)
}

// localEngine is the repository's one set of serving structures, built over
// one slab of the logical cube (the whole cube when the map has one shard):
// the §3 prefix sum and §4 blocked index for sums, the §6 max and min trees
// for extremes. The blocked index shares cells and writes deltas into it;
// the trees hold their own copies, so the §7 protocol can compare old and
// new values independently of the §5 path.
type localEngine struct {
	cells     *ndarray.Array[int64] // the slab; blk applies deltas into it
	sum       *prefixsum.IntArray
	blk       *blocked.IntArray
	max       *maxtree.Tree[int64]
	min       *maxtree.Tree[int64]
	sumEngine string // "prefixsum" or "blocked" — which structure answers Sum
}

func newLocalEngine(a *ndarray.Array[int64], blockSize, fanout int, sumEngine string) *localEngine {
	return &localEngine{
		cells:     a,
		sum:       prefixsum.BuildInt(a),
		blk:       blocked.BuildInt(a, blockSize),
		max:       maxtree.Build(a.Clone(), fanout),
		min:       maxtree.BuildMin(a.Clone(), fanout),
		sumEngine: sumEngine,
	}
}

// ValueBounds returns the smallest and largest cell value of a ([0, 0] for
// an empty array): the exact bounds a RemoteEngine's conservative interval
// restarts from.
func ValueBounds(a *ndarray.Array[int64]) (lo, hi int64) {
	data := a.Data()
	if len(data) > 0 {
		lo, hi = data[0], data[0]
		for _, v := range data[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	return lo, hi
}

func (e *localEngine) Sum(ctx context.Context, r ndarray.Region, c *metrics.Counter) (int64, error) {
	if e.sumEngine == "blocked" {
		return e.blk.SumContext(ctx, r, c)
	}
	return e.sum.Sum(r, c), nil
}

func (e *localEngine) SumWithBounds(ctx context.Context, r ndarray.Region, c *metrics.Counter) (int64, int64, int64, error) {
	// Bounds first, then the exact answer, with the bounds' accesses kept
	// out of c: op=sum reports the cost of the exact answer alone.
	lo, hi, err := blocked.BoundsContext(ctx, e.blk, r, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	v, err := e.Sum(ctx, r, c)
	return v, lo, hi, err
}

func (e *localEngine) Extreme(ctx context.Context, r ndarray.Region, min bool, c *metrics.Counter) ([]int, int64, bool, error) {
	tree := e.max
	if min {
		tree = e.min
	}
	off, v, ok, err := tree.MaxIndexContext(ctx, r, c)
	if err != nil || !ok {
		return nil, 0, false, err
	}
	return tree.Cube().Coords(off, nil), v, true, nil
}

// Apply commits one coalesced batch to every structure: §5 deltas to the
// prefix sums (the blocked index also folds them into the shared slab
// cells), then the §7 reassignment protocol feeds the resulting absolute
// values to the max and min trees.
func (e *localEngine) Apply(_ context.Context, deltas []batchsum.IntUpdate) error {
	batchsum.ApplyInt(e.sum, deltas, nil)
	batchsum.ApplyBlockedInt(e.blk, deltas, nil)
	assigns := make([]maxtree.PointUpdate[int64], len(deltas))
	for i, d := range deltas {
		assigns[i] = maxtree.PointUpdate[int64]{Coords: d.Coords, Value: e.cells.At(d.Coords...)}
	}
	e.max.BatchUpdate(assigns, nil)
	e.min.BatchUpdate(assigns, nil)
	return nil
}

// CellBounds scans the slab: a local engine is never down, so no serving
// path asks and nothing is kept running for it.
func (e *localEngine) CellBounds() (int64, int64) { return ValueBounds(e.cells) }
