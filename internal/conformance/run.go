package conformance

import (
	"fmt"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
)

// Options configures one scenario run.
type Options struct {
	// Sum and Max select the engine registries; nil means the defaults.
	// Explicit empty (non-nil, zero-length) slices disable that side.
	Sum []SumFactory
	Max []MaxFactory
	// Env supplies factory resources (temp dirs).
	Env Env
	// SkipMetamorphic disables the split/corner/commute properties and
	// leaves only differential agreement — the shrinker uses it when
	// minimizing a purely differential failure.
	SkipMetamorphic bool
}

// Run executes the scenario against every registered engine and returns
// the first conformance violation, or nil if all checks pass. The non-nil
// error return is reserved for harness-level problems (a temp dir that
// cannot be created), never for engine misbehavior — that is a Failure.
func Run(sc *Scenario, opts Options) (*Failure, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if opts.Sum == nil {
		opts.Sum = DefaultSumEngines()
	}
	if opts.Max == nil {
		opts.Max = DefaultMaxEngines()
	}

	oracle := naive.NewOracle(sc.Shape, sc.Data)
	seed := ndarray.FromSlice(append([]int64(nil), sc.Data...), sc.Shape...)

	var sums []SumEngine
	var maxes []MaxEngine
	defer func() {
		closeIf := func(e any) {
			if c, ok := e.(Closer); ok {
				c.Close()
			}
		}
		for _, e := range sums {
			closeIf(e)
		}
		for _, e := range maxes {
			closeIf(e)
		}
	}()
	for _, f := range opts.Sum {
		e, err := f.New(opts.Env, seed.Clone())
		if err != nil {
			return nil, fmt.Errorf("building engine %q: %w", f.Name, err)
		}
		sums = append(sums, e)
	}
	for _, f := range opts.Max {
		e, err := f.New(opts.Env, seed.Clone())
		if err != nil {
			return nil, fmt.Errorf("building engine %q: %w", f.Name, err)
		}
		maxes = append(maxes, e)
	}

	for i, op := range sc.Ops {
		fail := func(engine, check string, got, want int64, detail string) *Failure {
			return &Failure{Scenario: sc, OpIndex: i, Engine: engine, Check: check, Got: got, Want: want, Detail: detail}
		}
		switch op.Kind {
		case OpSum:
			r := op.Region.Region()
			want := oracle.Sum(r)
			for _, e := range sums {
				got, err := e.Sum(r)
				if err != nil {
					return fail(e.Name(), "error", 0, want, err.Error()), nil
				}
				if got != want {
					return fail(e.Name(), "differential", got, want, fmt.Sprintf("sum over %v", r)), nil
				}
				if !opts.SkipMetamorphic {
					if f := checkSplit(e, r, want, fail); f != nil {
						return f, nil
					}
					if f := checkCorners(e, r, want, fail); f != nil {
						return f, nil
					}
				}
			}

		case OpMax:
			r := op.Region.Region()
			maxWant, maxOK := oracle.Max(r)
			minWant, minOK := oracle.Min(r)
			for _, e := range maxes {
				want, wantOK := maxWant, maxOK
				if e.IsMin() {
					want, wantOK = minWant, minOK
				}
				got, ok, err := e.Extreme(r)
				if err != nil {
					return fail(e.Name(), "error", 0, want, err.Error()), nil
				}
				if ok != wantOK {
					return fail(e.Name(), "differential", boolInt(ok), boolInt(wantOK), fmt.Sprintf("emptiness over %v", r)), nil
				}
				if ok && got != want {
					return fail(e.Name(), "differential", got, want, fmt.Sprintf("extreme over %v", r)), nil
				}
			}

		case OpUpdate:
			// One logical batch, two physical forms: absolute values for
			// the §7 engines, oracle-derived deltas for the §5 engines.
			// Applying assigns to the oracle in order makes duplicate
			// coordinates well-defined (last value wins ⇔ deltas add up).
			probe := probeRegion(sc, i)
			before := make([]int64, len(sums))
			var probeErr error
			if !opts.SkipMetamorphic {
				for k, e := range sums {
					before[k], probeErr = e.Sum(probe)
					if probeErr != nil {
						return fail(e.Name(), "error", 0, 0, probeErr.Error()), nil
					}
				}
			}
			deltas := make([]batchsum.IntUpdate, 0, len(op.Assigns))
			assigns := make([]maxtree.PointUpdate[int64], 0, len(op.Assigns))
			var probeDelta int64
			for _, a := range op.Assigns {
				d := oracle.Assign(a.Coords, a.Value)
				deltas = append(deltas, batchsum.IntUpdate{Coords: a.Coords, Delta: d})
				assigns = append(assigns, maxtree.PointUpdate[int64]{Coords: a.Coords, Value: a.Value})
				if probe.Contains(a.Coords) {
					probeDelta += d
				}
			}
			for k, e := range sums {
				if err := e.Apply(deltas); err != nil {
					return fail(e.Name(), "error", 0, 0, err.Error()), nil
				}
				if !opts.SkipMetamorphic {
					// Update-then-query must equal query-then-adjust (§5:
					// a batch of deltas moves any range sum by exactly the
					// deltas that fall inside the range).
					got, err := e.Sum(probe)
					if err != nil {
						return fail(e.Name(), "error", 0, 0, err.Error()), nil
					}
					if want := before[k] + probeDelta; got != want {
						return fail(e.Name(), "commute", got, want, fmt.Sprintf("probe %v after batch of %d", probe, len(deltas))), nil
					}
				}
			}
			for _, e := range maxes {
				if err := e.Assign(assigns); err != nil {
					return fail(e.Name(), "error", 0, 0, err.Error()), nil
				}
			}

		case OpCheckpoint:
			for _, e := range sums {
				cp, ok := e.(Checkpointer)
				if !ok {
					continue
				}
				if err := cp.Checkpoint(); err != nil {
					return fail(e.Name(), "checkpoint", 0, 0, err.Error()), nil
				}
				// Recovery must reproduce the full state, not just not
				// crash: check the whole-cube sum immediately.
				r := sc.Bounds()
				want := oracle.Sum(r)
				got, err := e.Sum(r)
				if err != nil {
					return fail(e.Name(), "error", 0, want, err.Error()), nil
				}
				if got != want {
					return fail(e.Name(), "checkpoint", got, want, "whole-cube sum after recovery"), nil
				}
			}
			for _, e := range maxes {
				cp, ok := e.(Checkpointer)
				if !ok {
					continue
				}
				if err := cp.Checkpoint(); err != nil {
					return fail(e.Name(), "checkpoint", 0, 0, err.Error()), nil
				}
				want, _ := oracle.Max(sc.Bounds())
				if e.IsMin() {
					want, _ = oracle.Min(sc.Bounds())
				}
				if got, _, err := e.Extreme(sc.Bounds()); err != nil {
					return fail(e.Name(), "error", 0, want, err.Error()), nil
				} else if got != want {
					return fail(e.Name(), "checkpoint", got, want, "whole-cube extreme after recovery"), nil
				}
			}
		}
	}
	return nil, nil
}

// checkSplit verifies split-additivity: for the first dimension with more
// than one index, the sum over the region equals the sum of its two halves
// (the defining identity of SUM's group structure — holds for any data,
// including wrapped int64).
func checkSplit(e SumEngine, r ndarray.Region, whole int64, fail func(string, string, int64, int64, string) *Failure) *Failure {
	for j, rng := range r {
		if rng.Lo >= rng.Hi {
			continue
		}
		m := (rng.Lo + rng.Hi) / 2
		left, right := r.Clone(), r.Clone()
		left[j].Hi = m
		right[j].Lo = m + 1
		lv, err := e.Sum(left)
		if err != nil {
			return fail(e.Name(), "error", 0, whole, err.Error())
		}
		rv, err := e.Sum(right)
		if err != nil {
			return fail(e.Name(), "error", 0, whole, err.Error())
		}
		if lv+rv != whole {
			return fail(e.Name(), "split", lv+rv, whole,
				fmt.Sprintf("split %v at dim %d index %d: %d + %d", r, j, m, lv, rv))
		}
		return nil
	}
	return nil
}

// checkCorners verifies the §3 inclusion–exclusion identity using the
// engine's own prefix queries: Sum(ℓ:h) must equal the alternating sum of
// the 2^d corner prefix sums Sum(0:x), where per dimension x is h (keep)
// or ℓ−1 (subtract; an x of −1 makes that prefix region empty and the
// engine must answer 0 for it).
func checkCorners(e SumEngine, r ndarray.Region, whole int64, fail func(string, string, int64, int64, string) *Failure) *Failure {
	d := len(r)
	if r.Empty() {
		return nil
	}
	var total int64
	for mask := 0; mask < 1<<d; mask++ {
		prefix := make(ndarray.Region, d)
		sign := int64(1)
		for j := 0; j < d; j++ {
			if mask&(1<<j) == 0 {
				prefix[j] = ndarray.Range{Lo: 0, Hi: r[j].Hi}
			} else {
				prefix[j] = ndarray.Range{Lo: 0, Hi: r[j].Lo - 1}
				sign = -sign
			}
		}
		v, err := e.Sum(prefix)
		if err != nil {
			return fail(e.Name(), "error", 0, whole, err.Error())
		}
		total += sign * v
	}
	if total != whole {
		return fail(e.Name(), "corners", total, whole, fmt.Sprintf("2^%d-corner inclusion–exclusion over %v", d, r))
	}
	return nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
