package conformance

import (
	"context"
	"fmt"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/ndarray"
	"rangecube/internal/shard"
	"rangecube/internal/wal"
)

// --- sharded scatter–gather router ---

// shardedSumEngine is the slab-partitioned serving tier driven directly: a
// shard.Router over N per-shard engine sets, answering sums by
// split-additive merge of per-shard sub-ranges and scattering update
// batches to the owning shards. Differential agreement with the naive
// oracle (and, transitively, with every unsharded engine in the registry)
// is exactly the bit-identical-answers property the router is built on.
type shardedSumEngine struct {
	name string
	rt   *shard.Router
}

// newShardedSum partitions a along dim into n slabs (clamped to the
// extent, so small random cubes still build). dim < 0 picks the last
// dimension — between the two registered variants, both edge slabs of the
// row-major order get covered.
func newShardedSum(a *ndarray.Array[int64], dim, n int) (SumEngine, error) {
	if dim < 0 {
		dim = a.Dims() - 1
	}
	m, err := shard.NewMap(a.Shape(), dim, n)
	if err != nil {
		return nil, err
	}
	rt, err := shard.NewRouter(a, m, 2, 2, "")
	if err != nil {
		return nil, err
	}
	return &shardedSumEngine{name: fmt.Sprintf("sharded/%d", n), rt: rt}, nil
}

func (e *shardedSumEngine) Name() string { return e.name }

func (e *shardedSumEngine) Sum(r ndarray.Region) (int64, error) {
	return e.rt.Sum(context.Background(), r, nil)
}

func (e *shardedSumEngine) Apply(b []batchsum.IntUpdate) error {
	cells := make([]wal.Update, len(b))
	for i, u := range b {
		cells[i] = wal.Update(u)
	}
	e.rt.Apply(context.Background(), wal.Coalesce(e.rt.Map().Shape(), cells))
	return nil
}

// shardedMaxEngine holds the router's Extreme fold — per-shard max/min
// trees merged in shard order — to the same oracle as the flat trees. It
// retains the logical cube to translate the harness's absolute-value §7
// assignments into the value-to-add form the scatter path takes.
type shardedMaxEngine struct {
	name  string
	isMin bool
	cells *ndarray.Array[int64]
	rt    *shard.Router
}

func newShardedMax(a *ndarray.Array[int64], n int, isMin bool) (MaxEngine, error) {
	m, err := shard.NewMap(a.Shape(), 0, n)
	if err != nil {
		return nil, err
	}
	rt, err := shard.NewRouter(a, m, 1, 3, "")
	if err != nil {
		return nil, err
	}
	kind := "sharded-max"
	if isMin {
		kind = "sharded-min"
	}
	return &shardedMaxEngine{
		name:  fmt.Sprintf("%s/%d", kind, n),
		isMin: isMin,
		cells: a.Clone(),
		rt:    rt,
	}, nil
}

func (e *shardedMaxEngine) Name() string { return e.name }
func (e *shardedMaxEngine) IsMin() bool  { return e.isMin }

func (e *shardedMaxEngine) Extreme(r ndarray.Region) (int64, bool, error) {
	_, v, ok, err := e.rt.Extreme(context.Background(), r, e.isMin, nil)
	return v, ok, err
}

func (e *shardedMaxEngine) Assign(batch []maxtree.PointUpdate[int64]) error {
	cells := make([]wal.Update, 0, len(batch))
	for _, u := range batch {
		old := e.cells.At(u.Coords...)
		if u.Value == old {
			continue
		}
		e.cells.Set(u.Value, u.Coords...)
		cells = append(cells, wal.Update{Coords: u.Coords, Delta: u.Value - old})
	}
	e.rt.Apply(context.Background(), wal.Coalesce(e.cells.Shape(), cells))
	return nil
}
