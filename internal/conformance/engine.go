package conformance

import (
	"fmt"

	"rangecube/internal/algebra"
	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/core/sumtree"
	"rangecube/internal/denseregion"
	"rangecube/internal/ndarray"
	"rangecube/internal/sparse"
)

// SumEngine is one registered range-sum implementation. Adapters own their
// state (each is built from a private copy of the seed cube, so engines
// that mutate cube cells cannot contaminate one another) and must answer
// exactly what the naive scan answers, including 0 for empty regions.
type SumEngine interface {
	Name() string
	Sum(r ndarray.Region) (int64, error)
	// Apply adds the batch of deltas (§5 update form).
	Apply(batch []batchsum.IntUpdate) error
}

// MaxEngine is one registered range-extreme implementation. IsMin selects
// which oracle scan it is held to.
type MaxEngine interface {
	Name() string
	IsMin() bool
	// Extreme returns the range maximum (or minimum), ok=false on a region
	// with no cells.
	Extreme(r ndarray.Region) (int64, bool, error)
	// Assign applies the batch of absolute-value point updates (§7 form).
	Assign(batch []maxtree.PointUpdate[int64]) error
}

// Checkpointer is implemented by engines with a crash/restart story:
// Checkpoint must behave like a crash followed by recovery, after which the
// engine keeps answering. Engines without durability simply don't
// implement it.
type Checkpointer interface {
	Checkpoint() error
}

// Closer releases engine resources (temp dirs, sockets) at the end of a
// scenario.
type Closer interface {
	Close() error
}

// --- prefix sum (§3) ---

type prefixSumEngine struct {
	ps *prefixsum.IntArray
}

func newPrefixSum(a *ndarray.Array[int64]) SumEngine {
	return &prefixSumEngine{ps: prefixsum.BuildInt(a)}
}

func (e *prefixSumEngine) Name() string                        { return "prefixsum" }
func (e *prefixSumEngine) Sum(r ndarray.Region) (int64, error) { return e.ps.Sum(r, nil), nil }
func (e *prefixSumEngine) Apply(b []batchsum.IntUpdate) error {
	batchsum.ApplyInt(e.ps, b, nil)
	return nil
}

// --- blocked prefix sum (§4) ---

type blockedEngine struct {
	name string
	bl   *blocked.IntArray
}

func newBlocked(a *ndarray.Array[int64], b int) SumEngine {
	return &blockedEngine{name: fmt.Sprintf("blocked/b=%d", b), bl: blocked.BuildInt(a, b)}
}

// blockSizes gives dimension j the block size bs[j mod len(bs)].
func blockSizes(a *ndarray.Array[int64], bs []int) []int {
	full := make([]int, a.Dims())
	for j := range full {
		full[j] = bs[j%len(bs)]
	}
	return full
}

// newBlockedDims exercises the per-dimension block-size generalization
// (§9.2).
func newBlockedDims(a *ndarray.Array[int64], bs []int) SumEngine {
	full := blockSizes(a, bs)
	return &blockedEngine{name: fmt.Sprintf("blocked/dims=%v", full), bl: blocked.BuildIntDims(a, full)}
}

// newBlockedEdges is the blocked structure as a serving engine builds it,
// with edge arrays: the same answers from different reads, and an Apply that
// has the edge arrays to keep current.
func newBlockedEdges(name string, a *ndarray.Array[int64], bs []int) SumEngine {
	return &blockedEngine{name: "blocked+edges/" + name, bl: blocked.BuildWithEdges[int64, algebra.IntSum](a, blockSizes(a, bs))}
}

func (e *blockedEngine) Name() string                        { return e.name }
func (e *blockedEngine) Sum(r ndarray.Region) (int64, error) { return e.bl.Sum(r, nil), nil }
func (e *blockedEngine) Apply(b []batchsum.IntUpdate) error {
	batchsum.ApplyBlockedInt(e.bl, b, nil)
	return nil
}

// --- sum tree (§8) ---

// sumTreeEngine keeps the retained cube current and rebuilds the tree on
// update: the paper gives the sum tree no incremental update algorithm, so
// rebuild-from-cube is its reference update path.
type sumTreeEngine struct {
	tr *sumtree.IntTree
}

func newSumTree(a *ndarray.Array[int64], b int) SumEngine {
	return &sumTreeEngine{tr: sumtree.BuildInt(a, b)}
}

func (e *sumTreeEngine) Name() string                        { return fmt.Sprintf("sumtree/b=%d", e.tr.Fanout()) }
func (e *sumTreeEngine) Sum(r ndarray.Region) (int64, error) { return e.tr.Sum(r, nil), nil }
func (e *sumTreeEngine) Apply(b []batchsum.IntUpdate) error {
	a := e.tr.Cube()
	for _, u := range b {
		off := a.Offset(u.Coords...)
		a.Data()[off] += u.Delta
	}
	e.tr = sumtree.BuildInt(a, e.tr.Fanout())
	return nil
}

// --- sparse cube (§10) ---

type sparseEngine struct {
	sc *sparse.SumCube
}

func newSparse(a *ndarray.Array[int64]) SumEngine {
	var pts []denseregion.Point
	coords := make([]int, a.Dims())
	for off, v := range a.Data() {
		if v != 0 {
			a.Coords(off, coords)
			pts = append(pts, denseregion.Point{Coords: append([]int(nil), coords...), Value: v})
		}
	}
	return &sparseEngine{sc: sparse.NewSumCube(a.Shape(), pts, denseregion.Params{})}
}

func (e *sparseEngine) Name() string                        { return "sparse" }
func (e *sparseEngine) Sum(r ndarray.Region) (int64, error) { return e.sc.Sum(r, nil), nil }
func (e *sparseEngine) Apply(b []batchsum.IntUpdate) error {
	ups := make([]sparse.SumUpdate, len(b))
	for i, u := range b {
		ups[i] = sparse.SumUpdate{Coords: u.Coords, Delta: u.Delta}
	}
	e.sc.Update(ups, nil)
	return nil
}

// --- range-max / range-min trees (§6, §7) ---

type maxTreeEngine struct {
	tr *maxtree.Tree[int64]
}

func newMaxTree(a *ndarray.Array[int64], b int) MaxEngine {
	return &maxTreeEngine{tr: maxtree.Build(a, b)}
}

func newMinTree(a *ndarray.Array[int64], b int) MaxEngine {
	return &maxTreeEngine{tr: maxtree.BuildMin(a, b)}
}

func (e *maxTreeEngine) Name() string {
	kind := "maxtree"
	if e.tr.IsMin() {
		kind = "mintree"
	}
	return fmt.Sprintf("%s/b=%d", kind, e.tr.Fanout())
}

func (e *maxTreeEngine) IsMin() bool { return e.tr.IsMin() }

func (e *maxTreeEngine) Extreme(r ndarray.Region) (int64, bool, error) {
	_, v, ok := e.tr.MaxIndex(r, nil)
	return v, ok, nil
}

func (e *maxTreeEngine) Assign(batch []maxtree.PointUpdate[int64]) error {
	e.tr.BatchUpdate(batch, nil)
	return nil
}
