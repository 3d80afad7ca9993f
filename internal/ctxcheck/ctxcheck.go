// Package ctxcheck provides an amortized context-cancellation checkpoint
// for long sequential scans. The paper's query algorithms are pure CPU
// loops over array cells; under a serving deadline they must notice a
// canceled request without paying a ctx.Err() call per cell. A Checker
// spreads that cost: callers report progress in cells via Tick, and the
// context is consulted only once per Interval cells — a bound tight enough
// that a canceled query returns within a fraction of a millisecond even on
// large cubes, and loose enough that the checkpoint is invisible in
// benchmarks.
//
// A nil *Checker is valid and free: Tick on it is an inlined nil-check, so
// the non-context entry points (Sum, MaxIndex, ...) thread nil through the
// shared implementation at zero cost.
package ctxcheck

import "context"

// Interval is the number of cells scanned between context checks. At
// typical scan speeds (a few cells per ns) this bounds the reaction time
// to cancellation well under a millisecond.
const Interval = 64 * 1024

// Checker is an amortized cancellation checkpoint bound to one context.
// It is not safe for concurrent use; each goroutine of a parallel scan
// needs its own.
type Checker struct {
	ctx    context.Context
	budget int64
}

// New returns a Checker for ctx, or nil when ctx can never be canceled
// (ctx.Done() == nil, e.g. context.Background()), so the uncancelable case
// degenerates to the free nil path. The first Tick on a fresh Checker
// consults the context immediately, so an already-canceled context is
// caught before any work is done.
func New(ctx context.Context) *Checker {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &Checker{ctx: ctx}
}

// Reset binds a Checker the caller keeps and reuses to ctx, as New binds a
// fresh one: it returns ck, or nil when ctx can never be canceled.
func (ck *Checker) Reset(ctx context.Context) *Checker {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	*ck = Checker{ctx: ctx}
	return ck
}

// Tick records that n more cells are about to be scanned and returns the
// context's error if a checkpoint fires and the context is done. A nil
// receiver always returns nil.
func (ck *Checker) Tick(n int64) error {
	if ck == nil {
		return nil
	}
	ck.budget -= n
	if ck.budget <= 0 {
		ck.budget = Interval
		return ck.ctx.Err()
	}
	return nil
}
