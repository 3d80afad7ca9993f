package rangecube

import (
	"rangecube/internal/algebra"
	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/ndarray"
)

// Float measure support: the engines are generic over any invertible
// operator internally (§1); these types expose the float64 SUM and
// MAX/MIN instantiations for measures like revenue that are not integral.
// Note the usual caveat: float prefix sums accumulate rounding, so
// range-sums are exact only up to float64 associativity error.

// FloatArray is a dense d-dimensional float64 measure array.
type FloatArray = ndarray.Array[float64]

// NewFloatArray allocates a zero-filled float cube.
func NewFloatArray(shape ...int) *FloatArray { return ndarray.New[float64](shape...) }

// FloatFromSlice wraps a row-major float64 slice as a cube.
func FloatFromSlice(data []float64, shape ...int) *FloatArray {
	return ndarray.FromSlice(data, shape...)
}

// FloatSumIndex is SumIndex for float64 measures (§3).
type FloatSumIndex struct {
	ps *prefixsum.Array[float64, algebra.FloatSum]
}

// NewFloatSumIndex builds the prefix sums of a float cube.
func NewFloatSumIndex(a *FloatArray) *FloatSumIndex {
	return &FloatSumIndex{ps: prefixsum.Build[float64, algebra.FloatSum](a)}
}

// Sum returns the sum over the region.
func (s *FloatSumIndex) Sum(r Region) float64 { return s.ps.Sum(r, nil) }

// SumCounted is Sum with cost accounting.
func (s *FloatSumIndex) SumCounted(r Region, c *Counter) float64 { return s.ps.Sum(r, c) }

// Cell reconstructs one cube cell (§3.4).
func (s *FloatSumIndex) Cell(coords ...int) float64 { return s.ps.Cell(coords, nil) }

// FloatUpdate is one queued delta update in the §5 (location, value-to-add)
// form, for float measures.
type FloatUpdate = batchsum.Update[float64]

// Apply runs the §5 batch-update algorithm over the prefix sums.
func (s *FloatSumIndex) Apply(updates []FloatUpdate) {
	batchsum.Apply[float64, algebra.FloatSum](s.ps, updates, nil)
}

// FloatBlockedSumIndex is BlockedSumIndex for float64 measures (§4).
type FloatBlockedSumIndex struct {
	bl *blocked.Array[float64, algebra.FloatSum]
}

// NewFloatBlockedSumIndex builds the blocked structure with block size b.
func NewFloatBlockedSumIndex(a *FloatArray, b int) *FloatBlockedSumIndex {
	return &FloatBlockedSumIndex{bl: blocked.Build[float64, algebra.FloatSum](a, b)}
}

// Sum returns the sum over the region.
func (s *FloatBlockedSumIndex) Sum(r Region) float64 { return s.bl.Sum(r, nil) }

// SumCounted is Sum with cost accounting.
func (s *FloatBlockedSumIndex) SumCounted(r Region, c *Counter) float64 { return s.bl.Sum(r, c) }

// Apply runs the §5.2 batch update as BlockedSumIndex.Update does: the
// deltas go to the retained cube cells at once and, combined per block, to a
// queue folded into the packed prefix sums whenever it fills.
func (s *FloatBlockedSumIndex) Apply(updates []FloatUpdate) {
	batchsum.ApplyBlocked[float64, algebra.FloatSum](s.bl, updates, nil)
}

// FloatMaxResult reports a float range-max (or min) answer.
type FloatMaxResult struct {
	Coords []int
	Value  float64
	OK     bool
}

// FloatAssign sets one cell to an absolute value, the §7 ⟨index, value⟩
// update form the max/min trees repair themselves from.
type FloatAssign = maxtree.PointUpdate[float64]

// FloatMaxIndex is MaxIndex for float64 measures (§6).
type FloatMaxIndex struct {
	tr *maxtree.Tree[float64]
}

// NewFloatMaxIndex builds a float range-max tree with fanout b.
func NewFloatMaxIndex(a *FloatArray, b int) *FloatMaxIndex {
	return &FloatMaxIndex{tr: maxtree.Build(a, b)}
}

// Max returns the position and value of a maximum cell in the region.
func (m *FloatMaxIndex) Max(r Region) FloatMaxResult {
	off, v, ok := m.tr.MaxIndex(r, nil)
	if !ok {
		return FloatMaxResult{}
	}
	return FloatMaxResult{Coords: m.tr.Cube().Coords(off, nil), Value: v, OK: true}
}

// Assign applies a batch of absolute-value cell assignments through the §7
// protocol: the cube cells are written and the tree nodes repaired.
func (m *FloatMaxIndex) Assign(assigns []FloatAssign) {
	m.tr.BatchUpdate(assigns, nil)
}

// FloatMinIndex is the range-MIN twin of FloatMaxIndex: the same tree with
// an inverted comparison (§6 notes MIN is the mirror image).
type FloatMinIndex struct {
	tr *maxtree.Tree[float64]
}

// NewFloatMinIndex builds a float range-min tree with fanout b.
func NewFloatMinIndex(a *FloatArray, b int) *FloatMinIndex {
	return &FloatMinIndex{tr: maxtree.BuildMin(a, b)}
}

// Min returns the position and value of a minimum cell in the region.
func (m *FloatMinIndex) Min(r Region) FloatMaxResult {
	off, v, ok := m.tr.MaxIndex(r, nil)
	if !ok {
		return FloatMaxResult{}
	}
	return FloatMaxResult{Coords: m.tr.Cube().Coords(off, nil), Value: v, OK: true}
}

// Assign applies a batch of absolute-value cell assignments through the §7
// protocol.
func (m *FloatMinIndex) Assign(assigns []FloatAssign) {
	m.tr.BatchUpdate(assigns, nil)
}
