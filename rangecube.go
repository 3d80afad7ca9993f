// Package rangecube is a Go implementation of "Range Queries in OLAP Data
// Cubes" (Ho, Agrawal, Megiddo, Srikant; SIGMOD 1997): fast range-SUM
// queries via d-dimensional prefix sums (basic and blocked), range-MAX/MIN
// queries via balanced trees with branch-and-bound, batch updates for both,
// physical-design helpers for choosing dimensions, cuboids and block
// sizes, and sparse-cube variants built on dense-region discovery, B-trees
// and R*-trees.
//
// The package is a facade: it re-exports the cube model and wraps the
// query engines with small, stable types. Construct a data cube either
// directly as an Array (a dense d-dimensional int64 array) or through the
// OLAP model (Dimension/Cube, which map attribute domains to rank
// domains), then build one or more indexes over it:
//
//	a := rangecube.NewArray(100, 10, 50, 3)   // age × year × state × type
//	// ... fill a ...
//	sum := rangecube.NewSumIndex(a)           // O(1) range sums (§3)
//	v := sum.Sum(rangecube.Reg(36, 51, 1, 9, 0, 49, 1, 1))
//
// Every query method has a *Counted variant that accounts the paper's cost
// proxy (cells and auxiliary entries accessed) into a Counter.
package rangecube

import (
	"rangecube/internal/algebra"
	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/core/sumtree"
	"rangecube/internal/cube"
	"rangecube/internal/denseregion"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
	"rangecube/internal/sparse"
)

// SetParallelism caps the number of worker goroutines the bulk kernels
// (index construction and batch updates) may use, and returns the previous
// cap (0 means the GOMAXPROCS default). n <= 0 restores the default.
// Parallel and sequential runs produce bit-identical indexes; cubes whose
// work falls below the internal grain always run sequentially regardless of
// this setting, so small builds pay zero goroutine overhead. Queries are
// always single-goroutine (they are latency-bound, not throughput-bound).
func SetParallelism(n int) int { return parallel.SetMaxWorkers(n) }

// Parallelism reports the current worker budget for bulk kernels.
func Parallelism() int { return parallel.Workers() }

// Array is a dense d-dimensional int64 measure array in row-major order,
// the paper's data cube A (§2).
type Array = ndarray.Array[int64]

// Range is a closed index interval ℓ..h in one dimension.
type Range = ndarray.Range

// Region is a d-dimensional query region, one Range per dimension.
type Region = ndarray.Region

// Counter accumulates the paper's cost proxy: original-cube cells and
// auxiliary (precomputed) entries accessed, plus combining steps.
type Counter = metrics.Counter

// Cube is the OLAP MDDB model: dimensions with attribute→rank mappings
// over a dense measure array (§2).
type Cube = cube.Cube

// Dimension is one functional attribute of a Cube.
type Dimension = cube.Dimension

// Selector restricts one dimension of a Cube query.
type Selector = cube.Selector

// NewArray allocates a zero-filled cube with the given extents.
func NewArray(shape ...int) *Array { return ndarray.New[int64](shape...) }

// FromSlice wraps a row-major slice as a cube.
func FromSlice(data []int64, shape ...int) *Array { return ndarray.FromSlice(data, shape...) }

// Reg builds a Region from alternating lo,hi pairs.
func Reg(bounds ...int) Region { return ndarray.Reg(bounds...) }

// NewCube allocates an OLAP cube over the given dimensions.
func NewCube(dims ...*Dimension) *Cube { return cube.New(dims...) }

// NewIntDimension declares an attribute over a contiguous integer domain.
func NewIntDimension(name string, lo, hi int) *Dimension { return cube.NewIntDimension(name, lo, hi) }

// NewCategoryDimension declares an attribute over an ordered categorical
// domain.
func NewCategoryDimension(name string, values ...string) *Dimension {
	return cube.NewCategoryDimension(name, values...)
}

// Between, Eq and All build Cube query selectors.
func Between(dim string, lo, hi any) Selector { return cube.Between(dim, lo, hi) }
func Eq(dim string, v any) Selector           { return cube.Eq(dim, v) }
func All(dim string) Selector                 { return cube.All(dim) }

// SumUpdate is one queued range-sum update: Delta is added to the cell at
// Coords (§5).
type SumUpdate = batchsum.IntUpdate

// PointUpdate assigns a new absolute value to a cell (§7, range-max).
type PointUpdate = maxtree.PointUpdate[int64]

// --- SumIndex: the basic prefix-sum engine (§3) ---

// SumIndex answers any range-sum in at most 2^d accesses by precomputing
// the full prefix-sum array P (same size as the cube). After construction
// the index is independent of the cube: the cube may be discarded and
// cells recovered with Cell (§3.4).
type SumIndex struct {
	ps *prefixsum.IntArray
}

// NewSumIndex builds the prefix-sum array in d·N steps (§3.3).
func NewSumIndex(a *Array) *SumIndex { return &SumIndex{ps: prefixsum.BuildInt(a)} }

// Sum returns the sum over the region.
func (s *SumIndex) Sum(r Region) int64 { return s.ps.Sum(r, nil) }

// SumCounted is Sum with cost accounting.
func (s *SumIndex) SumCounted(r Region, c *Counter) int64 { return s.ps.Sum(r, c) }

// Cell reconstructs one cube cell as a volume-1 range-sum.
func (s *SumIndex) Cell(coords ...int) int64 { return s.ps.Cell(coords, nil) }

// Update applies a batch of k updates by partitioning the affected prefix
// sums into at most ∏(k+j)/d! rectangular regions (Theorem 2), each written
// once; it returns the region count. The caller's cube, if retained, is not
// touched.
func (s *SumIndex) Update(batch []SumUpdate) int { return batchsum.ApplyInt(s.ps, batch, nil) }

// AuxSize returns the number of precomputed entries (N).
func (s *SumIndex) AuxSize() int { return s.ps.Size() }

// --- BlockedSumIndex: the space-reduced engine (§4) ---

// BlockedSumIndex keeps prefix sums at block granularity b (auxiliary space
// ≈ N/b^d); queries touch up to 2^d prefix sums per decomposed region plus
// some cube cells near the query boundary. The cube is retained.
type BlockedSumIndex struct {
	bl *blocked.IntArray
}

// NewBlockedSumIndex builds the blocked structure with block size b ≥ 1
// (b = 1 degenerates to the basic algorithm).
func NewBlockedSumIndex(a *Array, b int) *BlockedSumIndex {
	return &BlockedSumIndex{bl: blocked.BuildInt(a, b)}
}

// NewBlockedSumIndexDims builds the blocked structure with one block size
// per dimension (§9.2). Use block size 1 for attributes queried as
// singletons (§9.1) so their boundaries never force cube scans.
func NewBlockedSumIndexDims(a *Array, bs []int) *BlockedSumIndex {
	return &BlockedSumIndex{bl: blocked.BuildIntDims(a, bs)}
}

// Sum returns the sum over the region.
func (s *BlockedSumIndex) Sum(r Region) int64 { return s.bl.Sum(r, nil) }

// SumCounted is Sum with cost accounting.
func (s *BlockedSumIndex) SumCounted(r Region, c *Counter) int64 { return s.bl.Sum(r, c) }

// Update applies a batch of updates the way a server does (§5.1, §5.2): the
// cube cells at once, and one combined value-to-add per block to a queue
// that is folded into the packed prefix sums in one pass whenever it reaches
// ⌈√(packed entries)⌉ blocks. Sums count the queue at every point. It returns
// the number of blocks folded: 0 while the queue has room.
func (s *BlockedSumIndex) Update(batch []SumUpdate) int {
	return batchsum.ApplyBlockedInt(s.bl, batch, nil)
}

// BlockSize returns b; AuxSize the packed prefix-sum cell count.
func (s *BlockedSumIndex) BlockSize() int { return s.bl.BlockSize() }
func (s *BlockedSumIndex) AuxSize() int   { return s.bl.AuxSize() }

// SumBounds returns lower and upper bounds on Sum(r) from prefix sums
// alone — no cube accesses — so an interactive client can show an
// approximate answer while the exact sum computes (§11). Bounds are valid
// for non-negative measures.
func (s *BlockedSumIndex) SumBounds(r Region) (lo, hi int64) {
	return blocked.Bounds(s.bl, r, nil)
}

// --- TreeSumIndex: the §8 baseline ---

// TreeSumIndex answers range-sums from a hierarchical tree of node sums. It
// exists as the comparison baseline the paper analyzes in §8; the blocked
// prefix sum dominates it for all but block-sized queries.
type TreeSumIndex struct {
	tr *sumtree.IntTree
}

// NewTreeSumIndex builds the tree with per-dimension fanout b ≥ 2.
func NewTreeSumIndex(a *Array, b int) *TreeSumIndex {
	return &TreeSumIndex{tr: sumtree.BuildInt(a, b)}
}

// Sum returns the sum over the region.
func (s *TreeSumIndex) Sum(r Region) int64 { return s.tr.Sum(r, nil) }

// SumCounted is Sum with cost accounting.
func (s *TreeSumIndex) SumCounted(r Region, c *Counter) int64 { return s.tr.Sum(r, c) }

// --- MaxIndex / MinIndex: the tree engine (§6, §7) ---

// MaxResult reports a range-max (or range-min) answer.
type MaxResult struct {
	Coords []int // coordinates of the extreme cell
	Value  int64
	OK     bool // false for an empty region
}

// MaxIndex answers range-max queries from a balanced b^d-ary tree with
// branch-and-bound (§6); average-case accesses for 1-d queries are bounded
// by b + 7 + 1/b (Theorem 3).
type MaxIndex struct {
	tr *maxtree.Tree[int64]
}

// NewMaxIndex builds a range-max tree with per-dimension fanout b ≥ 2.
func NewMaxIndex(a *Array, b int) *MaxIndex { return &MaxIndex{tr: maxtree.Build(a, b)} }

// NewMinIndex builds the MIN twin of NewMaxIndex.
func NewMinIndex(a *Array, b int) *MaxIndex { return &MaxIndex{tr: maxtree.BuildMin(a, b)} }

// Max returns the position and value of a maximum cell in the region.
func (m *MaxIndex) Max(r Region) MaxResult { return m.MaxCounted(r, nil) }

// MaxCounted is Max with cost accounting.
func (m *MaxIndex) MaxCounted(r Region, c *Counter) MaxResult {
	off, v, ok := m.tr.MaxIndex(r, c)
	if !ok {
		return MaxResult{}
	}
	return MaxResult{Coords: m.tr.Cube().Coords(off, nil), Value: v, OK: true}
}

// Update applies a batch of absolute-value point updates to the cube and
// repairs the tree with the §7 tag protocol; it returns the number of
// block rescans that were needed.
func (m *MaxIndex) Update(batch []PointUpdate) int {
	return m.tr.BatchUpdate(batch, nil).Rescans
}

// MaxBounds returns lower and upper bounds on the range maximum from O(1)
// accesses (§11); exact reports whether they already coincide with the
// true answer.
func (m *MaxIndex) MaxBounds(r Region) (lo, hi int64, exact bool) {
	return m.tr.MaxBounds(r, nil)
}

// --- Average / Count (§1: derived operators) ---

// AvgIndex answers range-COUNT and range-AVERAGE queries by keeping
// (sum, count) pairs under the prefix-sum machinery; COUNT is a SUM of ones
// and AVERAGE is Sum/Count (§1).
type AvgIndex struct {
	ps *prefixsum.Array[algebra.SumCount, algebra.SumCountGroup]
}

// NewAvgIndex builds the (sum, count) prefix sums of a float measure array
// given as values and an occupancy mask (nil mask = every cell counts).
func NewAvgIndex(a *Array, occupied func(coords []int) bool) *AvgIndex {
	pairs := ndarray.New[algebra.SumCount](a.Shape()...)
	coords := make([]int, a.Dims())
	for off, v := range a.Data() {
		a.Coords(off, coords)
		if occupied == nil || occupied(coords) {
			pairs.Data()[off] = algebra.SumCount{Sum: float64(v), Count: 1}
		}
	}
	return &AvgIndex{ps: prefixsum.Build[algebra.SumCount, algebra.SumCountGroup](pairs)}
}

// Average returns the mean over the counted cells of the region (0 if the
// region counts no cells) together with the count.
func (x *AvgIndex) Average(r Region) (avg float64, count int64) {
	sc := x.ps.Sum(r, nil)
	return sc.Average(), sc.Count
}

// RollingSums returns the sliding-window sums of a 1-dimensional cube: out
// [i] = Sum(i : i+window−1). ROLLING SUM is a special case of range-sum
// (§1). It panics unless the index is over a 1-dimensional cube.
func (s *SumIndex) RollingSums(window int) []int64 {
	shape := s.ps.Shape()
	if len(shape) != 1 {
		panic("rangecube: RollingSums requires a 1-dimensional cube")
	}
	n := shape[0]
	if window < 1 || window > n {
		panic("rangecube: window out of range")
	}
	out := make([]int64, n-window+1)
	for i := range out {
		out[i] = s.ps.Sum(Region{{Lo: i, Hi: i + window - 1}}, nil)
	}
	return out
}

// --- Sparse cubes (§10) ---

// SparsePoint is one non-empty cell of a sparse cube.
type SparsePoint = denseregion.Point

// SparseSumIndex answers range-sums on a sparse cube via dense-region
// discovery, per-region prefix sums, and an R*-tree over regions and
// isolated points (§10.2).
type SparseSumIndex struct {
	sc *sparse.SumCube
}

// NewSparseSumIndex builds the sparse structure; points must be distinct
// cells within the given shape.
func NewSparseSumIndex(shape []int, points []SparsePoint) *SparseSumIndex {
	return &SparseSumIndex{sc: sparse.NewSumCube(shape, points, denseregion.Params{})}
}

// Sum returns the sum over the region.
func (s *SparseSumIndex) Sum(r Region) int64 { return s.sc.Sum(r, nil) }

// SumCounted is Sum with cost accounting.
func (s *SparseSumIndex) SumCounted(r Region, c *Counter) int64 { return s.sc.Sum(r, c) }

// Regions and Points report the structure found: dense regions and
// isolated outliers.
func (s *SparseSumIndex) Regions() int { return s.sc.Regions() }
func (s *SparseSumIndex) Points() int  { return s.sc.Points() }

// SparseSumUpdate adds a delta to one cell of a sparse SUM cube.
type SparseSumUpdate = sparse.SumUpdate

// SparseMaxUpdate assigns a new value to one cell of a sparse MAX cube.
type SparseMaxUpdate = sparse.MaxUpdate

// Update applies a batch of deltas: region cells go through the §5 batch
// algorithm on their region's prefix sums, isolated cells through the
// R*-tree (new points appear, zeroed points vanish).
func (s *SparseSumIndex) Update(ups []SparseSumUpdate) { s.sc.Update(ups, nil) }

// SparseMaxIndex answers range-max queries on a sparse cube via an R*-tree
// with max augmentation and per-region max trees (§10.3). Empty cells do
// not participate; a region with no data reports OK = false.
type SparseMaxIndex struct {
	mc *sparse.MaxCube
}

// NewSparseMaxIndex builds the sparse max structure with per-region tree
// fanout b ≥ 2.
func NewSparseMaxIndex(shape []int, points []SparsePoint, b int) *SparseMaxIndex {
	return &SparseMaxIndex{mc: sparse.NewMaxCube(shape, points, denseregion.Params{}, b)}
}

// Max returns the maximum value over the non-empty cells of the region.
func (m *SparseMaxIndex) Max(r Region) (int64, bool) { return m.mc.Max(r, nil) }

// Update applies a batch of point assignments: region cells go through the
// §7 tag protocol on their region's max tree, isolated cells through the
// R*-tree.
func (m *SparseMaxIndex) Update(ups []SparseMaxUpdate) { m.mc.Update(ups, nil) }

// Sparse1D answers range-sums on a sparse 1-dimensional cube with B-tree
// predecessor searches over stored prefix sums (§10.1).
type Sparse1D struct {
	s *sparse.OneDim
}

// SparseCell is one non-empty cell of a 1-dimensional sparse cube.
type SparseCell = sparse.Cell

// NewSparse1D builds the structure over a domain of size n.
func NewSparse1D(n int, cells []SparseCell) *Sparse1D {
	return &Sparse1D{s: sparse.NewOneDim(n, cells)}
}

// Sum returns the sum over ℓ..h in two predecessor searches.
func (s *Sparse1D) Sum(lo, hi int) int64 {
	return s.s.Sum(Range{Lo: lo, Hi: hi}, nil)
}

// Sparse1DBlocked is the b > 1 variant of Sparse1D (§10.1): prefix sums are
// stored only at every b-th non-empty cell, shrinking auxiliary storage by
// b at the cost of scanning at most b−1 cells per query bound.
type Sparse1DBlocked struct {
	s *sparse.OneDimBlocked
}

// NewSparse1DBlocked builds the blocked sparse structure with anchor
// spacing b ≥ 1.
func NewSparse1DBlocked(n int, cells []SparseCell, b int) *Sparse1DBlocked {
	return &Sparse1DBlocked{s: sparse.NewOneDimBlocked(n, cells, b)}
}

// Sum returns the sum over ℓ..h.
func (s *Sparse1DBlocked) Sum(lo, hi int) int64 {
	return s.s.Sum(Range{Lo: lo, Hi: hi}, nil)
}

// AuxSize returns the number of stored anchor prefix sums.
func (s *Sparse1DBlocked) AuxSize() int { return s.s.AuxSize() }
