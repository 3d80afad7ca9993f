package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
	"rangecube/internal/trace"
)

// PointDelta is one cell update in the logical cube's coordinates — the §5
// value-to-add form the server's commit path produces after coalescing.
type PointDelta struct {
	Coords []int
	Delta  int64
}

// Router partitions one logical cube across N engine shards along a slab
// map and serves the full query surface over them: sums, counts, averages
// and §11 bounds merge by split-additivity; max/min by folding per-shard
// extremes; point-update batches scatter to the owning shards.
//
// Shards are Engines: in-process structures over a slab, or remote
// cubeserver processes spoken to over HTTP. A one-shard map is the unsharded
// server: its single engine serves the caller's array in place, and every
// gather is one sub-query run on the calling goroutine. A remote shard that
// is down degrades sums to partial answers (SumFull) with the §11 bounds
// machinery covering the absent slabs; every other operation fails with an
// error naming the shard.
//
// The router performs no locking: callers serialize queries against updates
// (the server holds its RWMutex, a follower its own).
type Router struct {
	m         Map
	sumEngine string // "prefixsum" or "blocked" — which structure answers Sum
	shards    []Engine

	// Scatter–gather accounting, atomic because queries run concurrently
	// under the caller's read lock. Exported via Stats for telemetry.
	queries      atomic.Uint64 // gathered queries
	subqueries   atomic.Uint64 // per-shard sub-queries they decomposed into
	scatterCells atomic.Uint64 // point deltas scattered by Apply

	// remote aggregates the remote engines' failure/hedge/partial counts;
	// nil for an all-local router.
	remote *RemoteStats

	// netIO marks a router whose engines block on network round trips
	// (NewRouterEngines). Scatters and gathers then get a goroutine per
	// shard so the round trips overlap; an all-local router keeps its
	// sub-queries on the shared worker pool instead — they are
	// microsecond-scale structure walks, and paying goroutine and context
	// churn per query is measurable against them.
	netIO bool
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
// writes them, so the caller hands a over (see InPlace). sumEngine selects
// the structure answering Sum ("prefixsum" or "blocked"), mirroring the
// server's SumEngine option.
func NewRouter(a *ndarray.Array[int64], m Map, blockSize, fanout int, sumEngine string) (*Router, error) {
	sumEngine, err := normalizeSumEngine(sumEngine)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(a.Shape(), m.Shape()) {
		return nil, fmt.Errorf("shard: cube shape %v does not match map shape %v", a.Shape(), m.Shape())
	}
	rt := &Router{m: m, sumEngine: sumEngine, shards: make([]Engine, m.Shards())}
	for i := range rt.shards {
		slab := a
		if m.Shards() > 1 {
			slab = SlabCopy(a, m, i)
		}
		rt.shards[i] = newLocalEngine(slab, blockSize, fanout, sumEngine)
	}
	return rt, nil
}

// InPlace reports whether the router's single local engine serves the array
// NewRouter was given rather than slab copies of it. Apply then updates that
// array's cells itself; otherwise keeping the logical cube current is the
// caller's job.
func (rt *Router) InPlace() bool { return !rt.netIO && len(rt.shards) == 1 }

// NewRouterEngines builds a router over caller-provided engines — the
// multi-process tier, where each engine is a RemoteEngine speaking to a
// cubeserver shard process. stats (may be nil) aggregates the engines'
// failure counters for telemetry.
func NewRouterEngines(m Map, engines []Engine, sumEngine string, stats *RemoteStats) (*Router, error) {
	sumEngine, err := normalizeSumEngine(sumEngine)
	if err != nil {
		return nil, err
	}
	if len(engines) != m.Shards() {
		return nil, fmt.Errorf("shard: %d engines for a %d-shard map", len(engines), m.Shards())
	}
	return &Router{m: m, sumEngine: sumEngine, shards: engines, remote: stats, netIO: true}, nil
}

func normalizeSumEngine(sumEngine string) (string, error) {
	if sumEngine == "" {
		return "prefixsum", nil
	}
	if sumEngine != "prefixsum" && sumEngine != "blocked" {
		return "", fmt.Errorf("shard: unknown sum engine %q (prefixsum, blocked)", sumEngine)
	}
	return sumEngine, nil
}

// SlabCopy materializes shard i's sub-cube. Region iteration and the local
// array share row-major order, so the copy is a single ordered pass. The
// leader's resync path exports it to push authoritative slab state to a
// rebooted remote shard.
func SlabCopy(a *ndarray.Array[int64], m Map, i int) *ndarray.Array[int64] {
	local := ndarray.New[int64](m.LocalShape(i)...)
	region := a.Bounds()
	region[m.Dim()] = m.Slab(i)
	dst := local.Data()
	src := a.Data()
	k := 0
	ndarray.ForEachOffset(a, region, func(off int) {
		dst[k] = src[off]
		k++
	})
	return local
}

// Map returns the slab partition the router serves.
func (rt *Router) Map() Map { return rt.m }

// Shards returns the number of engine shards.
func (rt *Router) Shards() int { return len(rt.shards) }

// gather runs one body per sub-query concurrently and folds the per-shard
// counters into c in sub-query order (deterministic totals, like every
// parallel kernel in this repository). Errors are wrapped with the failing
// shard's index. Remote sub-queries share one cancelable child context: the
// first failure cancels the siblings, so a shard that fails fast never
// leaves the others holding sockets to completion.
func (rt *Router) gather(ctx context.Context, r ndarray.Region, c *metrics.Counter,
	body func(ctx context.Context, sub SubQuery, c *metrics.Counter) error) ([]SubQuery, error) {
	subs := rt.m.Decompose(r)
	if len(subs) == 0 {
		return nil, nil
	}
	rt.queries.Add(1)
	rt.subqueries.Add(uint64(len(subs)))
	// The per-request record (access log, request span) sees the true shard
	// fan-out this query decomposed into.
	trace.StatsFrom(ctx).AddFanout(len(subs))
	errs := make([]error, len(subs))
	switch {
	case len(subs) == 1:
		errs[0] = body(ctx, subs[0], c)
	case !rt.netIO:
		// In-process engines: each sub-query is a microsecond-scale
		// structure walk, so the gather runs on the shared worker pool under
		// its work estimate — small gathers stay inline on the calling
		// goroutine rather than paying goroutine and cancel-context churn
		// per query. Errors here are only context expiry, so there is
		// nothing to cancel early either.
		counters := make([]metrics.Counter, len(subs))
		work := 0
		for _, s := range subs {
			work += s.Local.Volume()
		}
		parallel.For(len(subs), work, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				errs[i] = body(ctx, subs[i], &counters[i])
			}
		})
		for i := range counters {
			c.Merge(&counters[i])
		}
	default:
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		counters := make([]metrics.Counter, len(subs))
		var wg sync.WaitGroup
		for i := range subs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// pprof labels on the scatter goroutines: a CPU or goroutine
				// profile of a stalled gather shows which shard it is waiting
				// on, without any tracing enabled.
				pprof.Do(ctx, pprof.Labels("cube_op", "gather", "cube_shard", strconv.Itoa(subs[i].Shard)), func(ctx context.Context) {
					if errs[i] = body(ctx, subs[i], &counters[i]); errs[i] != nil {
						cancel()
					}
				})
			}(i)
		}
		wg.Wait()
		for i := range counters {
			c.Merge(&counters[i])
		}
	}
	for i, e := range errs {
		if e != nil {
			return subs, fmt.Errorf("shard %d: %w", subs[i].Shard, e)
		}
	}
	return subs, nil
}

// Sum answers a range sum over the logical cube: the split-additive merge
// of the per-shard sub-range sums. An empty region sums to 0.
func (rt *Router) Sum(ctx context.Context, r ndarray.Region, c *metrics.Counter) (int64, error) {
	partial := make([]int64, len(rt.shards))
	_, err := rt.gather(ctx, r, c, func(ctx context.Context, sub SubQuery, c *metrics.Counter) error {
		v, err := rt.shards[sub.Shard].Sum(ctx, sub.Local, c)
		partial[sub.Shard] = v
		return err
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, v := range partial {
		total += v
	}
	return total, nil
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
}

// Partial reports whether the answer is missing any slab.
func (r SumResult) Partial() bool { return len(r.Missing) > 0 }

// SumFull answers a range sum, its §11 bounds, and — when remote shards are
// down — the partial-answer degradation in one gather: SumFullBatch of the
// one region.
func (rt *Router) SumFull(ctx context.Context, r ndarray.Region, c *metrics.Counter) (SumResult, error) {
	rs, err := rt.SumFullBatch(ctx, []ndarray.Region{r}, []*metrics.Counter{c})
	if err != nil {
		return SumResult{}, err
	}
	return rs[0], nil
}

// SumPart is one sub-query's batched answer: the exact sub-sum and its §11
// bounds over one shard-local region.
type SumPart struct {
	Value, Lo, Hi int64
}

// batchFullSummer is the optional Engine fast path for batched sums: all of
// one scatter's sub-queries against a shard answered in a single exchange.
// RemoteEngine implements it with one POST /query/batch round trip.
type batchFullSummer interface {
	SumBatchFull(ctx context.Context, regions []ndarray.Region, cs []*metrics.Counter) ([]SumPart, error)
}

// SumFullBatch answers many range sums in one scatter: each reachable shard
// contributes its exact sub-sums and their §11 bounds, each unreachable slab
// contributes [V·cellLo, V·cellHi] to the bounds and is listed in Missing.
// Every region's sub-queries are grouped by shard so each shard is consulted
// once — for a remote shard that is one batched round trip for the whole
// client batch instead of one per item, which is what keeps the
// multi-process tier's batch throughput within sight of the in-process
// tier's. cs[qi] (nillable entries) receives region qi's access cost, merged
// in sub-query order.
func (rt *Router) SumFullBatch(ctx context.Context, regions []ndarray.Region, cs []*metrics.Counter) ([]SumResult, error) {
	// Sub-queries are grouped by shard as they are cut, each remembering its
	// region: a region's sub-queries ascend by shard, so walking the groups
	// in shard order below merges every region in sub-query order.
	groups := make([][]subRef, len(rt.shards))
	total, work, busy, last := 0, 0, 0, 0
	for qi, r := range regions {
		for _, sub := range rt.m.Decompose(r) {
			if len(groups[sub.Shard]) == 0 {
				busy, last = busy+1, sub.Shard
			}
			groups[sub.Shard] = append(groups[sub.Shard], subRef{region: qi, local: sub.Local})
			total++
			work += sub.Local.Volume()
		}
	}
	rt.queries.Add(uint64(len(regions)))
	rt.subqueries.Add(uint64(total))
	trace.StatsFrom(ctx).AddFanout(total)
	sp := trace.FromContext(ctx).Child("router.scatter")
	if sp != nil {
		sp.Set("regions", strconv.Itoa(len(regions)))
		sp.Set("subqueries", strconv.Itoa(total))
		defer sp.End()
	}
	sctx := trace.NewContext(ctx, sp)

	errs := make([]error, len(rt.shards))
	switch {
	case busy == 0:
	case busy == 1:
		// One shard holds every sub-query (always so for a one-shard map):
		// nothing to overlap, so the scatter is a call on this goroutine.
		errs[last] = rt.sumGroup(sctx, last, groups[last])
	case !rt.netIO:
		// In-process engines: the shared worker pool under the work
		// estimate, so a small scatter stays on the calling goroutine.
		parallel.For(len(rt.shards), work, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				errs[i] = rt.sumGroup(sctx, i, groups[i])
			}
		})
	default:
		// One goroutine per shard with work, so the round trips overlap; the
		// first hard failure cancels the siblings, a down shard only
		// degrades its own sub-queries.
		gctx, cancel := context.WithCancel(sctx)
		defer cancel()
		var wg sync.WaitGroup
		for i := range rt.shards {
			if len(groups[i]) == 0 {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Label the scatter goroutine for pprof: a profile of a stalled
				// batch shows which shard's round trip it is blocked on.
				pprof.SetGoroutineLabels(pprof.WithLabels(gctx, pprof.Labels("cube_op", "scatter", "cube_shard", strconv.Itoa(i))))
				if errs[i] = rt.sumGroup(gctx, i, groups[i]); errs[i] != nil && !errors.Is(errs[i], ErrShardDown) {
					cancel()
				}
			}(i)
		}
		wg.Wait()
	}

	// A down shard's error stays in errs and degrades its sub-queries in
	// the merge below; anything else fails the scatter.
	for i, err := range errs {
		if err == nil || errors.Is(err, ErrShardDown) {
			continue
		}
		if ctx.Err() != nil {
			// The caller's own deadline/cancel, not a shard failure.
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	out := make([]SumResult, len(regions))
	for i, g := range groups {
		for k := range g {
			ref := &g[k]
			res := &out[ref.region]
			if errs[i] != nil {
				cl, ch := rt.shards[i].CellBounds()
				vol := int64(ref.local.Volume())
				res.Lo += vol * cl
				res.Hi += vol * ch
				res.Missing = append(res.Missing, i)
				continue
			}
			res.Value += ref.part.Value
			res.Lo += ref.part.Lo
			res.Hi += ref.part.Hi
			if ref.region < len(cs) {
				cs[ref.region].Merge(&ref.c)
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

// sumGroup answers shard i's share of one scatter, filling each ref's part
// and private counter: one batched exchange when the engine offers it and
// there is more than one sub-query to carry, one SumWithBounds each otherwise.
func (rt *Router) sumGroup(ctx context.Context, i int, g []subRef) error {
	if bs, ok := rt.shards[i].(batchFullSummer); ok && len(g) > 1 {
		regs := make([]ndarray.Region, len(g))
		counters := make([]*metrics.Counter, len(g))
		for k := range g {
			regs[k], counters[k] = g[k].local, &g[k].c
		}
		parts, err := bs.SumBatchFull(ctx, regs, counters)
		if err != nil {
			return err
		}
		for k := range g {
			g[k].part = parts[k]
		}
		return nil
	}
	for k := range g {
		v, lo, hi, err := rt.shards[i].SumWithBounds(ctx, g[k].local, &g[k].c)
		if err != nil {
			return err
		}
		g[k].part = SumPart{Value: v, Lo: lo, Hi: hi}
	}
	return nil
}

// subRef is one sub-query of a batched scatter: which region it was cut
// from, its shard-local region, and the answer and private counter the merge
// reads back.
type subRef struct {
	region int
	local  ndarray.Region
	part   SumPart
	c      metrics.Counter
}

// Extreme answers a range max (min=false) or min (min=true) by folding
// the per-shard extremes, in shard order with strict improvement — the
// same first-wins tie-break a single tree's descent uses, so the reported
// cell is deterministic. Coords are in logical-cube coordinates; ok=false
// means the region is empty. Unlike sums, an extreme has no partial form: a
// down shard fails the query.
func (rt *Router) Extreme(ctx context.Context, r ndarray.Region, min bool, c *metrics.Counter) (coords []int, v int64, ok bool, err error) {
	type hit struct {
		local []int
		v     int64
		ok    bool
	}
	hits := make([]hit, len(rt.shards))
	subs, err := rt.gather(ctx, r, c, func(ctx context.Context, sub SubQuery, c *metrics.Counter) error {
		local, v, ok, err := rt.shards[sub.Shard].Extreme(ctx, sub.Local, min, c)
		hits[sub.Shard] = hit{local: local, v: v, ok: ok}
		return err
	})
	if err != nil {
		return nil, 0, false, err
	}
	best := -1
	for _, sub := range subs {
		h := hits[sub.Shard]
		if !h.ok {
			continue
		}
		better := best < 0 || (min && h.v < v) || (!min && h.v > v)
		if better {
			best, v = sub.Shard, h.v
		}
	}
	if best < 0 {
		return nil, 0, false, nil
	}
	return rt.m.Global(best, hits[best].local, nil), v, true, nil
}

// Apply scatters one coalesced update batch to the owning shards and
// commits each shard's piece concurrently. The batch is one epoch: the
// caller must exclude queries for the duration.
//
// A remote shard that fails its scatter does not fail the commit: the
// leader's cube and WAL are authoritative, the engine marks itself down,
// and the serving tier's resync probe pushes fresh slab state when the
// shard returns. Until then the shard's slabs answer as missing.
//
// ctx carries tracing only — the scatter itself never gives up early on
// the caller's behalf (each engine bounds its own round trip), so passing
// context.Background() is always correct.
func (rt *Router) Apply(ctx context.Context, cells []PointDelta) {
	rt.scatterCells.Add(uint64(len(cells)))
	groups := make([][]batchsum.IntUpdate, len(rt.shards))
	dim := rt.m.Dim()
	work := 0
	for _, c := range cells {
		i := rt.m.Owner(c.Coords[dim])
		local := append([]int(nil), c.Coords...)
		local[dim] -= rt.m.Slab(i).Lo
		groups[i] = append(groups[i], batchsum.IntUpdate{Coords: local, Delta: c.Delta})
		work += 1 << len(c.Coords) // update-class fan-out proxy
	}
	if rt.netIO {
		// Remote engines: one goroutine per shard, so the scatter window is
		// one round trip, not a sequential sweep of them — that window is
		// exactly how long the commit path's seqlock holds lock-free batch
		// readers off the shards (server/commit.go).
		var wg sync.WaitGroup
		for i := range rt.shards {
			if len(groups[i]) == 0 {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("cube_op", "apply", "cube_shard", strconv.Itoa(i))))
				// A failed remote scatter is recorded by the engine itself
				// (down flag + error counter); the commit proceeds on the
				// leader's authoritative state. Detach from the caller's
				// deadline, keep its trace.
				_ = rt.shards[i].Apply(trace.NewContext(context.Background(), trace.FromContext(ctx)), groups[i])
			}(i)
		}
		wg.Wait()
		return
	}
	parallel.For(len(rt.shards), work, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if len(groups[i]) > 0 {
				_ = rt.shards[i].Apply(context.Background(), groups[i])
			}
		}
	})
}

// Cell returns one logical-cube cell's current value (test hook for local
// engines; the serving path never reads single cells through the router).
func (rt *Router) Cell(coords []int) int64 {
	i := rt.m.Owner(coords[rt.m.Dim()])
	local := append([]int(nil), coords...)
	local[rt.m.Dim()] -= rt.m.Slab(i).Lo
	return rt.shards[i].(*localEngine).cells.At(local...)
}
