package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/trace"
	"rangecube/internal/wal"
)

// Router partitions one logical cube across N engine shards along a slab
// map and serves the full query surface over them: sums, counts, averages
// and §11 bounds merge by split-additivity; max/min by folding per-shard
// extremes; point-update batches scatter to the owning shards.
//
// Shards are Engines: in-process structures over a slab, or remote
// cubeserver processes spoken to over HTTP. A one-shard map is the unsharded
// server: its single engine serves the caller's array in place. A scatter to
// in-process engines is one call per shard on the calling goroutine. A remote
// shard that is down degrades sums to partial answers (OpSumFull) with the
// §11 bounds machinery covering the absent slabs; every other operation fails
// with an error naming the shard. Answer is the one read path; Sum and
// Extreme are single-query calls of it.
//
// The router performs no locking: callers serialize queries against updates
// (the server holds its RWMutex).
type Router struct {
	m      Map
	shards []Engine

	// Scatter–gather accounting, atomic because queries run concurrently
	// under the caller's read lock. Exported via Stats for telemetry.
	queries      atomic.Uint64 // gathered queries
	subqueries   atomic.Uint64 // per-shard sub-queries they decomposed into
	scatterCells atomic.Uint64 // point deltas scattered by Apply

	// remote aggregates the remote engines' failure/hedge/partial counts;
	// nil for an all-local router.
	remote *RemoteStats

	// netIO marks a router whose engines block on network round trips
	// (NewRouterEngines); fanOut picks its concurrency by it.
	netIO bool
	logf  func(format string, args ...any) // a fan-out goroutine's panic
}

// Stats reports the router's lifetime scatter–gather counts: queries
// gathered, the sub-queries they fanned out into (subqueries/queries is the
// live shard fan-out of the workload), and point deltas scattered to shards.
func (rt *Router) Stats() (queries, subqueries, scatterCells uint64) {
	return rt.queries.Load(), rt.subqueries.Load(), rt.scatterCells.Load()
}

// RemoteStats returns the shared remote-shard failure counters, nil for an
// all-local router.
func (rt *Router) RemoteStats() *RemoteStats { return rt.remote }

// NewRouter builds in-process structures over the slab partition of a. With
// two or more shards each shard copies its slab; with one, the engine is
// built in place over a itself — no second copy of the cells — and Apply
// writes them, so the caller hands a over. Every engine's sum structure is
// the blocked index at the block size ResolveBlockSize gives; sumEngine is a
// deprecated alias for a block size, kept until the benchmark stops naming
// engines.
func NewRouter(a *ndarray.Array[int64], m Map, blockSize, fanout int, sumEngine string) (*Router, error) {
	b, err := ResolveBlockSize(sumEngine, blockSize)
	if err != nil {
		return nil, err
	}
	if fanout < 2 {
		return nil, fmt.Errorf("shard: tree fanout %d, want at least 2", fanout)
	}
	if !slices.Equal(a.Shape(), m.Shape()) {
		return nil, fmt.Errorf("shard: cube shape %v does not match map shape %v", a.Shape(), m.Shape())
	}
	rt := &Router{m: m, shards: make([]Engine, m.Shards())}
	for i := range rt.shards {
		slab := a
		if m.Shards() > 1 {
			slab = SlabCopy(a, m, i)
		}
		e := newLocalEngine(slab, b, fanout)
		e.sharded = m.Shards() > 1
		rt.shards[i] = e
	}
	return rt, nil
}

// ResolveBlockSize is the one place a sum structure's block size is decided.
// The block size is its only knob: b = 1 is §3's prefix-sum array P (§4:
// "b = 1 degenerates to the basic algorithm"), and a larger b is §4's blocked
// array. The deprecated engine name "prefixsum" means b = 1; "blocked" or ""
// means blockSize; a blockSize under 1 means 1. Any other name is an error.
func ResolveBlockSize(sumEngine string, blockSize int) (int, error) {
	switch sumEngine {
	case "prefixsum":
		return 1, nil
	case "", "blocked":
		return max(blockSize, 1), nil
	}
	return 0, fmt.Errorf("shard: unknown sum engine %q (prefixsum, blocked)", sumEngine)
}

// NewRouterEngines builds a router over caller-provided engines — the
// multi-process tier, where each engine is a RemoteEngine speaking to a
// cubeserver shard process. stats (may be nil) aggregates the engines'
// failure counters for telemetry; logf receives the stack of a panic on a
// fan-out goroutine.
func NewRouterEngines(m Map, engines []Engine, stats *RemoteStats, logf func(format string, args ...any)) (*Router, error) {
	if len(engines) != m.Shards() {
		return nil, fmt.Errorf("shard: %d engines for a %d-shard map", len(engines), m.Shards())
	}
	return &Router{m: m, shards: engines, remote: stats, netIO: true, logf: logf}, nil
}

// SlabCopy materializes shard i's sub-cube a run at a time: the slab's runs,
// in row-major order, are the copy's cells back to back.
func SlabCopy(a *ndarray.Array[int64], m Map, i int) *ndarray.Array[int64] {
	local := ndarray.New[int64](m.LocalShape(i)...)
	region := a.Bounds()
	region[m.Dim()] = m.Slab(i)
	dst, src := local.Data(), a.Data()
	ndarray.ForEachLine(a, region, func(ln ndarray.Line) {
		dst = dst[copy(dst, src[ln.Off:ln.Off+ln.Len]):]
	})
	return local
}

// Map returns the slab partition the router serves.
func (rt *Router) Map() Map { return rt.m }

// Shards returns the number of engine shards.
func (rt *Router) Shards() int { return len(rt.shards) }

// Query is one read of the logical cube.
type Query struct {
	Op     Op
	Region ndarray.Region
}

// SumResult is a range sum with its §11 bounds and, when shards were
// unreachable, the partial-answer envelope: Value and the bounds cover only
// the reachable slabs exactly, and each missing slab widens [Lo, Hi] by
// volume × the shard's conservative cell-value bounds — so the true answer
// always lies in [Lo, Hi], reachable or not.
type SumResult struct {
	Value  int64
	Lo, Hi int64
	// Missing lists the shard indices whose slabs are absent from Value;
	// nil for a complete (exact) answer.
	Missing []int
	// Unbounded says that a bound passed an int64 limit. [Lo, Hi] is then
	// [MinInt64, MaxInt64], which need not contain an answer outside int64.
	Unbounded bool
}

// Partial reports whether the answer is missing any slab.
func (r SumResult) Partial() bool { return len(r.Missing) > 0 }

// widen adds [lo, hi] to r's bounds; fit false says the caller's own terms
// already passed an int64 limit. A bound that passes one never wraps: it
// leaves [Lo, Hi] at the whole of int64, marked Unbounded, for the rest of
// the merge.
func (r *SumResult) widen(lo, hi int64, fit bool) {
	lo, okLo := addSat(r.Lo, lo)
	hi, okHi := addSat(r.Hi, hi)
	if r.Unbounded = r.Unbounded || !fit || !okLo || !okHi; r.Unbounded {
		lo, hi = math.MinInt64, math.MaxInt64
	}
	r.Lo, r.Hi = lo, hi
}

// addSat returns x + y, saturated at the int64 limits, and whether it fit.
func addSat(x, y int64) (int64, bool) {
	s := x + y
	switch {
	case (s > x) == (y > 0):
		return s, true
	case y < 0:
		return math.MinInt64, false
	}
	return math.MaxInt64, false
}

// mulVolume returns vol·c for a volume vol ≥ 0 and whether it fits in int64.
func mulVolume(vol, c int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(vol), uint64(max(c, -c))) // |c|, MinInt64's too
	if c < 0 {
		return -int64(lo), hi == 0 && lo <= 1<<63
	}
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}

// Answer is one query's merged result: a sum fills the SumResult, an extreme
// Value and At.
type Answer struct {
	SumResult
	// At is the extreme's cell in logical-cube coordinates; nil for a region
	// holding no cell, and for sums.
	At []int
	// Err fails this query alone: a shard it needs is down and its op has no
	// partial form (every op but OpSumFull), or its evaluation panicked
	// (ErrPanic).
	Err error
}

// Answer is the router's one read path: a batch of queries, whatever their
// ops, answered with one consultation of each shard that holds a piece of any
// of them — for a remote shard one exchange per client batch, not one per
// item. Every region is cut along the slab map and the pieces are grouped by
// shard as they are cut; a region's pieces ascend by shard, so walking the
// groups in shard order merges every query in sub-query order. Sums merge by
// split-additivity; extremes fold with strict improvement, the first-wins
// tie-break a single tree's descent uses, so the reported cell is
// deterministic. A down shard degrades an OpSumFull (its slab contributes
// [V·cellLo, V·cellHi] to the bounds and is listed in Missing) and fails every
// other op that needs it, in that query's Err, as does a piece whose
// evaluation panicked (ErrPanic); bounds that pass an int64 limit leave the
// answer Unbounded. cs[qi] (nillable entries) receives query qi's access
// cost. The returned error fails the whole batch:
// the caller's context ended, a shard failed in a way that is not absence, or
// the shards that answered did so at different seqs (ErrSeqMismatch), so no
// answer is one cube state.
func (rt *Router) Answer(ctx context.Context, qs []Query, cs []*metrics.Counter) ([]Answer, error) {
	var oneGroup [1][]Item // a one-shard router's groups and errors stay on the stack
	var oneErr [1]error
	groups, errs := oneGroup[:], oneErr[:]
	if n := len(rt.shards); n > 1 {
		groups, errs = make([][]Item, n), make([]error, n)
	}
	total := 0
	for qi, q := range qs {
		rt.m.cut(q.Region, func(i int, local ndarray.Region) {
			if groups[i] == nil {
				// Each later query adds at most one more piece to this shard.
				groups[i] = make([]Item, 0, len(qs)-qi)
			}
			groups[i] = append(groups[i], Item{Op: q.Op, Local: local, query: qi})
			total++
		})
	}
	rt.queries.Add(uint64(len(qs)))
	rt.subqueries.Add(uint64(total))
	// The per-request record (access log, request span) sees the true shard
	// fan-out this batch decomposed into.
	trace.StatsFrom(ctx).AddFanout(total)
	sp := trace.FromContext(ctx).Child("router.scatter")
	if sp != nil {
		sp.Set("queries", strconv.Itoa(len(qs)))
		sp.Set("subqueries", strconv.Itoa(total))
		defer sp.End()
	}
	fanOut(trace.NewContext(ctx, sp), rt, "scatter", groups, errs, Engine.Answer)
	for i, err := range errs {
		// A cancellation while ctx is live is a sibling fanOut canceled after
		// another shard failed: that failure is the one to name.
		if err == nil || errors.Is(err, ErrShardDown) || errors.Is(err, context.Canceled) && ctx.Err() == nil {
			continue
		}
		if ctx.Err() != nil {
			// The caller's own deadline/cancel, not a shard failure.
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	seq, stamped := uint64(0), -1 // the seq of shard stamped, the last that answered
	for i, g := range groups {
		if len(g) > 0 && errs[i] == nil {
			if stamped >= 0 && g[0].Seq != seq {
				return nil, fmt.Errorf("%w: shard %d at seq %d, shard %d at seq %d", ErrSeqMismatch, stamped, seq, i, g[0].Seq)
			}
			seq, stamped = g[0].Seq, i
		}
	}
	out := make([]Answer, len(qs))
	for i, g := range groups {
		for k := range g {
			it, a := &g[k], &out[g[k].query]
			switch {
			case errs[i] != nil && it.Op == OpSumFull:
				cl, ch := rt.shards[i].CellBounds()
				vol := int64(it.Local.Volume())
				lo, okLo := mulVolume(vol, cl)
				hi, okHi := mulVolume(vol, ch)
				a.widen(lo, hi, okLo && okHi)
				a.Missing = append(a.Missing, i)
			case errs[i] != nil && a.Err == nil:
				a.Err = fmt.Errorf("shard %d: %w", i, errs[i])
			case it.Err != nil && a.Err == nil:
				a.Err = it.Err
			}
			if errs[i] != nil || it.Err != nil {
				continue
			}
			if it.Op == OpSum || it.Op == OpSumFull {
				a.Value += it.Value
				a.widen(it.Lo, it.Hi, true)
			} else if it.At != nil && (a.At == nil || (it.Op == OpMin && it.Value < a.Value) || (it.Op == OpMax && it.Value > a.Value)) {
				a.Value, a.At = it.Value, rt.m.Global(i, it.At, it.At)
			}
			if it.query < len(cs) {
				cs[it.query].Merge(&it.Cost)
			}
		}
	}
	for qi := range out {
		if out[qi].Partial() {
			if rt.remote != nil {
				rt.remote.Partials.Add(1)
			}
			sp.SetPartial()
			trace.StatsFrom(ctx).SetPartial()
		}
	}
	return out, nil
}

// fanOut is the router's one fan-out, reads and update scatters alike:
// call(shard i, groups[i]) for every shard with a non-nil group, its error in
// errs[i]. In-process engines, and a single busy network engine, are called
// in shard order on this goroutine: a read forks only over one engine's
// items, in localEngine.Answer. Network engines get a goroutine per busy
// shard so the round trips overlap, and the first failure that is not a down
// shard cancels the siblings. A panic on one of those goroutines is that
// shard's error, wrapping ErrPanic.
func fanOut[T any](ctx context.Context, rt *Router, label string, groups [][]T, errs []error, call func(Engine, context.Context, []T) error) {
	busy := 0
	for i := range groups {
		if groups[i] != nil {
			busy++
		}
	}
	if !rt.netIO || busy < 2 {
		for i := range groups {
			if groups[i] != nil {
				errs[i] = call(rt.shards[i], ctx, groups[i])
			}
		}
		return
	}
	res := make([]error, len(groups)) // the goroutines', so that errs stays where its caller put it
	defer copy(errs, res)
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := range groups {
		if groups[i] == nil {
			continue
		}
		wg.Add(1)
		go func(i int, group []T) { // group, not groups: the caller's slice stays off the heap
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					res[i] = fmt.Errorf("%w: %s on shard %d: %v", ErrPanic, label, i, p)
					rt.logf("shard: %s on shard %d panicked: %v\n%s", label, i, p, stack())
					cancel()
				}
			}()
			// Label the goroutine for pprof: a profile of a stalled batch or
			// commit shows which shard's round trip it is blocked on.
			pprof.SetGoroutineLabels(pprof.WithLabels(gctx, pprof.Labels("cube_op", label, "cube_shard", strconv.Itoa(i))))
			if res[i] = call(rt.shards[i], gctx, group); res[i] != nil && !errors.Is(res[i], ErrShardDown) {
				cancel()
			}
		}(i, groups[i])
	}
	wg.Wait()
}

// Sum answers an exact range sum over the logical cube; an empty region sums
// to 0, a down shard fails it.
func (rt *Router) Sum(ctx context.Context, r ndarray.Region, c *metrics.Counter) (int64, error) {
	as, err := rt.Answer(ctx, []Query{{Op: OpSum, Region: r}}, []*metrics.Counter{c})
	if err != nil {
		return 0, err
	}
	return as[0].Value, as[0].Err
}

// Extreme answers a range max (min=false) or min (min=true). Coords are in
// logical-cube coordinates; ok=false means the region is empty. An extreme
// has no partial form: a down shard fails the query.
func (rt *Router) Extreme(ctx context.Context, r ndarray.Region, min bool, c *metrics.Counter) (coords []int, v int64, ok bool, err error) {
	q := Query{Op: OpMax, Region: r}
	if min {
		q.Op = OpMin
	}
	as, err := rt.Answer(ctx, []Query{q}, []*metrics.Counter{c})
	if err == nil {
		err = as[0].Err
	}
	if err != nil || as[0].At == nil {
		return nil, 0, false, err
	}
	return as[0].At, as[0].Value, true, nil
}

// Apply commits one update batch, in logical coordinates, to the owning
// in-process shards, in shard order on this goroutine. The batch must name
// each cell once, as wal.Coalesce leaves it. It is one epoch: the caller
// must exclude queries for the duration. Remote shards are
// sent the leader's records by Deliver instead.
func (rt *Router) Apply(ctx context.Context, cells []wal.Update) {
	rt.scatterCells.Add(uint64(len(cells)))
	for i, part := range rt.split(cells) {
		if len(part) > 0 {
			rt.shards[i].(*localEngine).apply(ctx, part, nil)
		}
	}
}

// Deliver sends each remote shard, concurrently, a record per commit
// (ascending seqs), empty for a commit that misses its slab, so every up
// shard holds the leader's seq: one exchange per shard, or as many as keep
// each body within limit bytes (RemoteEngine.Deliver). ctx carries tracing
// only.
func (rt *Router) Deliver(ctx context.Context, commits []wal.Batch, limit int) {
	groups := make([][]wal.Batch, len(rt.shards))
	for _, c := range commits {
		rt.scatterCells.Add(uint64(len(c.Updates)))
		for i, part := range rt.split(c.Updates) {
			groups[i] = append(groups[i], wal.Batch{Seq: c.Seq, Updates: part})
		}
	}
	errs := make([]error, len(groups))
	fanOut(ctx, rt, "deliver", groups, errs, func(e Engine, ctx context.Context, bs []wal.Batch) error {
		_ = e.(*RemoteEngine).Deliver(ctx, bs, limit) // reporting a failure would cancel the siblings
		return nil
	})
	for i, err := range errs { // a panic: what reached the shard is unknown
		if err != nil {
			rt.shards[i].(*RemoteEngine).MarkDown(err)
		}
	}
}

// split cuts cells, in logical coordinates, into each shard's part in its
// slab frame. A one-shard map's slab frame is the logical one, so its one
// part is cells itself.
func (rt *Router) split(cells []wal.Update) [][]wal.Update {
	if len(rt.shards) == 1 {
		return [][]wal.Update{cells}
	}
	parts := make([][]wal.Update, len(rt.shards))
	for _, c := range cells {
		i := rt.m.Owner(c.Coords[rt.m.Dim()])
		local := append([]int(nil), c.Coords...)
		local[rt.m.Dim()] -= rt.m.Slab(i).Lo
		parts[i] = append(parts[i], wal.Update{Coords: local, Delta: c.Delta})
	}
	return parts
}
