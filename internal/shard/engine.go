package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"

	"rangecube/internal/algebra"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
	"rangecube/internal/trace"
	"rangecube/internal/wal"
)

// ErrShardDown marks a sub-query or scatter that could not reach its shard:
// the engine is a remote process that is unreachable, timed out past its
// hedge, or has been marked down pending a state resync. The router treats
// it specially — a down shard degrades a sum to a partial answer with §11
// bounds covering the absent slab, instead of failing the query.
var ErrShardDown = errors.New("shard: shard unavailable")

// ErrSeqMismatch fails a gather whose remote shards answered at different
// seqs: a delivery ran between their exchanges, so the merged answer
// would be of no single cube state.
var ErrSeqMismatch = errors.New("shard: shards answered at different seqs")

// ErrPanic marks a query whose evaluation panicked, which fails that query
// alone, in its Answer's Err, and a shard exchange that panicked on the
// leader, which fails the batch.
var ErrPanic = errors.New("shard: query panicked")

// Engine is one shard's read surface as the router sees it: one batched
// read. All regions and coordinates are in the shard's local (slab) frame;
// the router owns the translation. Two implementations exist: localEngine
// (the paper's structures over one slab, in process) and RemoteEngine (the
// same contract spoken to a cubeserver process, the read as one binary
// scatter frame). Updates are not on it: the router applies a batch to its
// local engines (Apply) and delivers the leader's records to remote ones
// (Deliver).
type Engine interface {
	// Answer evaluates items — every sub-query one scatter has for this shard,
	// whatever their ops — in place. An error fails them all; an item's own Err
	// fails it alone.
	Answer(ctx context.Context, items []Item) error
	// CellBounds reports a conservative [lo, hi] interval containing every
	// current cell value in the slab. It never narrows under updates, so a
	// region of volume V missing from a partial answer contributes
	// [V·lo, V·hi] to the §11 interval marking the absent slab.
	CellBounds() (lo, hi int64)
}

// Op is one read operation. OpSum, OpMax and OpMin are what a shard is asked;
// OpSumFull is the router's: an OpSum that also reports §11 bounds and, with
// shards down, degrades to a partial answer instead of failing.
type Op uint8

const (
	OpSum Op = iota
	OpMax
	OpMin
	OpSumFull
)

// String names the op as the public API and the cost series do.
func (op Op) String() string { return [...]string{"sum", "max", "min", "sum"}[op] }

// Engine names the structure that answers op at block size b: the "engine"
// label of the server's §8 cost histograms and of every query span. A sum is
// answered by the blocked index, which is §3's "prefixsum" array P at b = 1;
// sharded prefixes the name on a router of more than one shard.
func (op Op) Engine(b int, sharded bool) string {
	name := [...]string{"blocked", "maxtree", "mintree", "blocked"}[op]
	if name == "blocked" && b == 1 {
		name = "prefixsum"
	}
	if sharded {
		name = "sharded:" + name
	}
	return name
}

// Item is one shard-local sub-query and, once its engine has answered, the
// answer — what a scatter frame carries per item in each direction.
type Item struct {
	Op    Op
	Local ndarray.Region // in the shard's slab frame
	// Value is the sum or the extreme. [Lo, Hi] bound a sum: the §11 estimate
	// for OpSumFull on an in-process engine, [Value, Value] everywhere else.
	Value, Lo, Hi int64
	// At is an extreme's cell in local coordinates; nil for a region holding
	// no cell, and for sums.
	At []int
	// Cost is the §8 access cost of the answer.
	Cost metrics.Counter
	// Err fails this item alone: a panic in an in-process engine (wrapping
	// ErrPanic), or the answering shard's refusal of it, which travels as the
	// status byte and fails DecodeAnswers.
	Err error
	// Seq is the seq of the state a remote shard answered at, the same for
	// every item of its frame; 0 from an in-process engine.
	Seq uint64

	query int // the query of the batch this item was cut from
}

// localEngine is the repository's one set of serving structures, built over
// one slab of the logical cube (the whole cube when the map has one shard).
// It builds what answers and nothing else; in bytes per cell:
//
//	cells  8            the slab, which every structure below indexes in place
//	blk    8/b^d        the §4 blocked index: it answers Sum with §11 lo/hi,
//	                    and its queued §5 apply writes cells. At b = 1 it is
//	                    §3's array P (§4: "b = 1 degenerates to the basic
//	                    algorithm"), and every sum's bounds are its value.
//	                    Plus its queue: ≤ ⌈√(packed entries)⌉ deferred
//	                    value-to-adds of 8·(1+d) bytes each.
//	edges  8·((1+1/b)^d − 1 − 1/b^d)
//	                    the blocked index's edge arrays: what its boundary
//	                    scans read instead of cells wherever a region is
//	                    block-aligned; none at b = 1, which has no boundary
//	max    ≈16/(f^d−1)  the §6 max tree
//	min    ≈16/(f^d−1)  the §6 min tree
//
// blk, max and min alias cells, so exactly one of them writes per commit (see
// apply) and the trees are told each cell's old and new value instead of
// comparing against copies of their own.
type localEngine struct {
	cells *ndarray.Array[int64]
	blk   *blocked.IntArray
	max   *maxtree.Tree[int64]
	min   *maxtree.Tree[int64]
	// queued is how many blocks blk's queue holds: written by the commit under
	// the caller's write lock, read by StructureBytes under its read lock.
	queued int
	// changes is apply's (cell, old, new) list, kept across commits.
	changes []maxtree.CellChange[int64]
	// blockSize and sharded name the engine on query spans (Op.Engine).
	blockSize int
	sharded   bool
}

func newLocalEngine(a *ndarray.Array[int64], blockSize, fanout int) *localEngine {
	mx, mn := maxtree.BuildBoth(a, fanout)
	return &localEngine{cells: a, max: mx, min: mn, blk: newBlockedSum(a, blockSize), blockSize: blockSize}
}

// newBlockedSum builds the blocked index the way an engine does: with edge
// arrays.
func newBlockedSum(a *ndarray.Array[int64], blockSize int) *blocked.IntArray {
	bs := make([]int, a.Dims())
	for j := range bs {
		bs[j] = blockSize
	}
	return blocked.BuildWithEdges[int64, algebra.IntSum](a, bs)
}

// ValueBounds returns the smallest and largest cell value in region r of a,
// which must not be empty, a run at a time: the exact bounds a
// RemoteEngine's conservative interval restarts from.
func ValueBounds(a *ndarray.Array[int64], r ndarray.Region) (lo, hi int64) {
	data := a.Data()
	lo, hi = math.MaxInt64, math.MinInt64
	ndarray.ForEachLine(a, r, func(ln ndarray.Line) {
		for _, v := range data[ln.Off : ln.Off+ln.Len] {
			lo, hi = min(lo, v), max(hi, v)
		}
	})
	return lo, hi
}

// Answer runs each item against the structure its op names. This is a
// batch's one fork: a group of one runs on the calling goroutine, a larger
// one on the worker pool, its work estimated as the items' volumes plus their
// count (nothing forks inside one query). The workers claim items one at a
// time (parallel.Each), so the calling goroutine starts at once and a helper
// that starts late takes what is left. An item that panics fails alone, its
// Err wrapping ErrPanic; a cancellation, which the structures' own
// checkpoints report, fails the call.
func (e *localEngine) Answer(ctx context.Context, items []Item) error {
	if len(items) == 1 { // no closure to allocate
		e.answer(ctx, &items[0])
		return ctx.Err()
	}
	work := len(items)
	for k := range items {
		work += items[k].Local.Volume()
	}
	parallel.Each(len(items), work, func(k int) { e.answer(ctx, &items[k]) })
	return ctx.Err()
}

// answer evaluates one item. A recording trace gets a query.<op> span for it
// carrying its §8 cost and engine label. A panic becomes the item's Err: on a
// pool goroutine it would otherwise kill the process.
func (e *localEngine) answer(ctx context.Context, it *Item) {
	sp := trace.FromContext(ctx).Child([...]string{"query.sum", "query.max", "query.min", "query.sum"}[it.Op])
	defer func() {
		if p := recover(); p != nil {
			it.Err = fmt.Errorf("%w: %s over %v: %v", ErrPanic, it.Op, it.Local, p)
		}
		if sp != nil {
			it.Cost.Publish(sp)
			sp.SetEngine(it.Op.Engine(e.blockSize, e.sharded))
			if it.Err != nil {
				sp.SetError(it.Err.Error())
			}
			sp.End()
		}
	}()
	switch it.Op {
	case OpSumFull:
		// The bounds' accesses stay out of the cost: op=sum reports the cost
		// of the exact answer alone.
		it.Value, it.Lo, it.Hi, it.Err = blocked.SumBoundsContext(ctx, e.blk, it.Local, &it.Cost)
	case OpSum:
		it.Value, it.Err = e.blk.SumContext(ctx, it.Local, &it.Cost)
		it.Lo, it.Hi = it.Value, it.Value
	default:
		tree := e.max
		if it.Op == OpMin {
			tree = e.min
		}
		off, v, ok, err := tree.MaxIndexContext(ctx, it.Local, &it.Cost)
		if it.Err = err; err == nil && ok {
			it.At, it.Value = tree.Cube().Coords(off, nil), v
		}
	}
}

// apply commits one batch, in slab coordinates, to every structure, counting
// the blocked index's writes in c. The batch names each cell once: a commit
// coalesces its group, and ApplyReplicated a replicated record, before it
// gets here. The three structures over cells share one array, so the order
// is fixed: record each cell's old and new value, let the deltas land — the
// blocked index writes cells and edge entries and queues the packed half,
// folding the queue in once it is full — and only then, with every cell of
// the batch written, hand both trees the same (old, new) list for the §7
// repair. The list lives in a buffer the engine keeps. The commit's span
// gains the queue's length and, when the fold runs, a structures.flush
// child.
func (e *localEngine) apply(ctx context.Context, deltas []wal.Update, c *metrics.Counter) {
	data := e.cells.Data()
	changes := e.changes[:0]
	for _, d := range deltas {
		off := e.cells.Offset(d.Coords...)
		changes = append(changes, maxtree.CellChange[int64]{Off: off, Old: data[off], New: data[off] + d.Delta})
	}
	e.changes = changes
	full := false
	for _, d := range deltas {
		e.queued, full = e.blk.ApplyQueued(d.Coords, d.Delta, c)
	}
	if sp := trace.FromContext(ctx); sp.Recording() {
		sp.Set("queued", strconv.Itoa(e.queued))
	}
	if full {
		sp := trace.FromContext(ctx).Child("structures.flush")
		e.blk.Flush(c)
		e.queued = 0
		sp.End()
	}
	e.max.Repair(changes, nil)
	e.min.Repair(changes, nil)
}

// CellBounds scans the slab: a local engine is never down, so no serving
// path asks and nothing is kept running for it.
func (e *localEngine) CellBounds() (int64, int64) { return ValueBounds(e.cells, e.cells.Bounds()) }

// StructureBytes reports the bytes each serving structure holds, summed over
// the router's local engines and keyed cells, blocked (the packed array, §3's
// P at b = 1, and its queue: a packed offset, a value-to-add and d − 1 packed
// coordinates per queued block), edges (0 at b = 1), maxtree and mintree. It
// is nil for a router of remote engines, whose structures live in the shard
// processes. The caller excludes commits.
func (rt *Router) StructureBytes() map[string]int64 {
	if rt.netIO {
		return nil
	}
	out := make(map[string]int64, 5)
	for _, e := range rt.shards {
		le := e.(*localEngine)
		out["cells"] += 8 * int64(le.cells.Size())
		out["blocked"] += 8*int64(le.blk.AuxSize()) + 8*int64(1+le.cells.Dims())*int64(le.queued)
		out["edges"] += 8 * int64(le.blk.EdgeSize())
		out["maxtree"] += 16 * int64(le.max.Nodes()) // a value and an argmax offset per node
		out["mintree"] += 16 * int64(le.min.Nodes())
	}
	return out
}
