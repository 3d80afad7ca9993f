// Package blocked implements the paper's blocked range-sum algorithm (§4):
// prefix sums are kept only at block granularity b, shrinking the auxiliary
// storage from N to about N/b^d cells (packed dense), at the price of
// touching some original-cube cells near the query boundary.
//
// A query region is decomposed, per dimension, into three adjoining
// sub-ranges ℓ..ℓ′−1, ℓ′..h′−1, h′..h where ℓ′ and h′ are the block-aligned
// bounds (Figure 4), giving up to 3^d disjoint sub-regions (Figure 5). The
// block-aligned internal region is answered purely from the blocked prefix
// sums; each boundary region is answered either by scanning the cube
// directly or by the superblock-minus-complement trick, whichever touches
// fewer cells (§4.2).
//
// A structure built with BuildWithEdges also holds edge arrays (edges.go): a
// boundary region that is block-aligned in some dimensions is then scanned
// in the cube contracted over exactly those dimensions instead of in the
// cube itself.
package blocked

import (
	"context"
	"fmt"
	"slices"

	"rangecube/internal/algebra"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/ctxcheck"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
)

// Array is a blocked prefix-sum structure over a retained data cube. Unlike
// the basic algorithm, the original cube cannot be dropped (§4.1).
type Array[T any, G algebra.Group[T]] struct {
	a *ndarray.Array[T] // the original cube, still needed for boundaries
	// packed holds one prefix sum per block: packed[k1,...,kd] =
	// P[min((k1+1)b−1, n1−1), ...] in the paper's sparse-P notation,
	// stored densely as the paper's implementation note prescribes.
	packed *prefixsum.Array[T, G]
	// bs is the per-dimension block size; §9.2 notes the block size may be
	// chosen per dimension (b = 1 in a dimension keeps full resolution
	// there, e.g. for attributes queried as singletons).
	bs []int
	// edges is nil for the paper's structure. BuildWithEdges fills it,
	// indexed by the set of dimensions an array keeps at cell resolution
	// (bit j for dimension j); see edges.go.
	edges []*ndarray.Array[T]
	// qoff, qval and qat are the queue of packed's deferred §5 value-to-adds
	// (queue.go): one per block, sorted by packed offset, with the block's
	// packed coordinates past the first, d − 1 per block, in qat.
	qoff []int
	qval []T
	qat  []int
	g    G
}

// IntArray is the blocked structure for the canonical int64 SUM.
type IntArray = Array[int64, algebra.IntSum]

// BuildInt builds an IntArray with block size b.
func BuildInt(a *ndarray.Array[int64], b int) *IntArray {
	return Build[int64, algebra.IntSum](a, b)
}

// BuildIntDims builds an IntArray with per-dimension block sizes.
func BuildIntDims(a *ndarray.Array[int64], bs []int) *IntArray {
	return BuildDims[int64, algebra.IntSum](a, bs)
}

// Build constructs the blocked prefix-sum array with the two-phase §4.3
// algorithm: contract A by summing each b×...×b block, then prefix-sum the
// contracted array in place. Total work is at most N + dN/b^d steps and no
// buffer beyond the packed array is allocated. Block size b must be ≥ 1;
// b = 1 degenerates to the basic algorithm of §3.
func Build[T any, G algebra.Group[T]](a *ndarray.Array[T], b int) *Array[T, G] {
	bs := make([]int, a.Dims())
	for i := range bs {
		bs[i] = b
	}
	return BuildDims[T, G](a, bs)
}

// BuildDims is Build with one block size per dimension (§9.2: "we need to
// determine what the block size should be in each dimension"). A block
// size of 1 in a dimension keeps prefix sums at full resolution there,
// which is the right choice for attributes queried as singletons (§9.1).
func BuildDims[T any, G algebra.Group[T]](a *ndarray.Array[T], bs []int) *Array[T, G] {
	return build[T, G](a, bs, false)
}

// FromParts reassembles a blocked structure from its persisted pieces: the
// original cube, the packed prefix-sum array (already prefix-summed) and
// the per-dimension block sizes. It validates the packed shape.
func FromParts[T any, G algebra.Group[T]](a *ndarray.Array[T], packed *ndarray.Array[T], bs []int) *Array[T, G] {
	if len(bs) != a.Dims() || packed.Dims() != a.Dims() {
		panic("blocked: FromParts dimensionality mismatch")
	}
	for j, n := range a.Shape() {
		if bs[j] < 1 || packed.Shape()[j] != (n+bs[j]-1)/bs[j] {
			panic(fmt.Sprintf("blocked: packed shape %v inconsistent with cube %v and blocks %v", packed.Shape(), a.Shape(), bs))
		}
	}
	return &Array[T, G]{a: a, packed: prefixsum.FromPrecomputed[T, G](packed), bs: append([]int(nil), bs...)}
}

// BlockSize returns the block size of dimension 0 (the uniform block size
// when built with Build); BlockSizes returns the per-dimension vector.
func (bl *Array[T, G]) BlockSize() int    { return bl.bs[0] }
func (bl *Array[T, G]) BlockSizes() []int { return bl.bs }

// AuxSize returns the number of stored prefix sums, ∏ ⌈nj/b⌉ ≈ N/b^d.
func (bl *Array[T, G]) AuxSize() int { return bl.packed.Size() }

// Cube returns the retained original cube.
func (bl *Array[T, G]) Cube() *ndarray.Array[T] { return bl.a }

// Packed exposes the packed block-level prefix-sum array; the batch-update
// layer (§5.2) treats it as a basic prefix-sum array over the contracted
// index space. What ApplyQueued queues reaches it only at Flush.
func (bl *Array[T, G]) Packed() *prefixsum.Array[T, G] { return bl.packed }

// rangeKind tags the role of a per-dimension sub-range in the 3^d
// decomposition.
type rangeKind int8

const (
	kindLow    rangeKind = iota // ℓ .. ℓ′−1
	kindMid                     // ℓ′ .. h′−1 (block aligned)
	kindHigh                    // h′ .. h
	kindSingle                  // ℓ .. h, used when the split is invalid (§4.2 case 2)
)

// dimSplit holds the §4.2 quantities for one dimension (Figure 4).
type dimSplit struct {
	parts  [3]ndarray.Range // the adjoining sub-ranges (empties filtered out later)
	kinds  [3]rangeKind
	n      int // parts in use: 3, or 1 for the single range
	cur    int // the decomposition odometer's digit
	l2, h2 int // ℓ″ and h″ (superblock outer bounds)
	lp, hp int // ℓ′ and h′
}

// split computes ℓ″, ℓ′, h′, h″ for one dimension and decides between the
// three-way split (case 1, also covering an empty middle) and the single
// range (case 2, when the block-aligned bounds cross).
func (bl *Array[T, G]) split(j int, r ndarray.Range) dimSplit {
	b := bl.bs[j]
	n := bl.a.Shape()[j]
	l2 := b * (r.Lo / b)           // ℓ″ = b⌊ℓ/b⌋
	lp := b * ((r.Lo + b - 1) / b) // ℓ′ = b⌈ℓ/b⌉
	hp := b * ((r.Hi + 1) / b)     // h′: largest block boundary ≤ h+1
	h2 := b * ((r.Hi + b) / b)     // h″ = b⌈(h+1)/b⌉ …
	if h2 > n {
		h2 = n // … clamped to n, as in the paper
	}
	if r.Hi == n-1 {
		// The last index nj−1 always has a stored prefix sum (§4.1), so a
		// query ending there is block-aligned on the high side even when
		// nj is not a multiple of b.
		hp = n
	}
	ds := dimSplit{l2: l2, h2: h2, lp: lp, hp: hp}
	if lp <= hp {
		ds.parts = [3]ndarray.Range{{Lo: r.Lo, Hi: lp - 1}, {Lo: lp, Hi: hp - 1}, {Lo: hp, Hi: r.Hi}}
		ds.kinds = [3]rangeKind{kindLow, kindMid, kindHigh}
		ds.n = 3
	} else {
		// The whole range lies strictly inside one block: no aligned middle.
		ds.parts[0], ds.kinds[0], ds.n = r, kindSingle, 1
	}
	return ds
}

// superRange returns the superblock range B_j for a sub-range of the given
// kind (§4.2): the smallest block-aligned range containing it.
func (ds *dimSplit) superRange(k rangeKind) ndarray.Range {
	switch k {
	case kindLow:
		return ndarray.Range{Lo: ds.l2, Hi: ds.lp - 1}
	case kindMid:
		return ndarray.Range{Lo: ds.lp, Hi: ds.hp - 1}
	case kindHigh:
		return ndarray.Range{Lo: ds.hp, Hi: ds.h2 - 1}
	default: // kindSingle
		return ndarray.Range{Lo: ds.l2, Hi: ds.h2 - 1}
	}
}

// subRegion is one non-empty sub-region of the 3^d decomposition.
type subRegion struct {
	keep  uint           // the dimensions in which it is not block-aligned; none for the internal region
	sub   ndarray.Region // the sub-region R
	super ndarray.Region // its superblock B (§4.2)
	block ndarray.Region // B in packed's index space (R = B for the internal region)
}

// subRegionOver returns a subRegion whose three regions are the 3d ranges of
// buf.
func subRegionOver(buf []ndarray.Range) subRegion {
	d := len(buf) / 3
	return subRegion{sub: buf[:d:d], super: buf[d : 2*d : 2*d], block: buf[2*d:]}
}

// piece is a sub-region and how Sum answers it. The internal region is one
// packed lookup of block; a boundary region, once planned, scans arr, the
// coarsest array that resolves it: the cube, or with edge arrays the cube
// contracted over the dimensions in which the region is block-aligned.
type piece[T any] struct {
	subRegion                   // plan moves sub and super into arr's index space
	arr       *ndarray.Array[T] // nil for the internal region
	direct    bool              // scan R rather than B ∖ R: vol(R) ≤ vol(B∖R) + 2^d − 1
}

// decomposition is the one walk over the §4.2 decomposition that Sum, Bounds
// and SumBoundsContext share: an odometer over the per-dimension sub-ranges.
type decomposition struct {
	bs     []int
	splits []dimSplit // nil once exhausted
}

// decompose splits r per dimension. The region must lie within the cube
// bounds; an empty region has no pieces.
func (bl *Array[T, G]) decompose(r ndarray.Region) decomposition {
	d := bl.a.Dims()
	if len(r) != d {
		panic(fmt.Sprintf("blocked: query of dimension %d against cube of dimension %d", len(r), d))
	}
	if r.Empty() {
		return decomposition{}
	}
	shape := bl.a.Shape()
	for j, rng := range r {
		if rng.Lo < 0 || rng.Hi >= shape[j] {
			panic(fmt.Sprintf("blocked: query %v out of bounds for shape %v", r, shape))
		}
	}
	w := decomposition{bs: bl.bs, splits: make([]dimSplit, d)}
	for j := range w.splits {
		w.splits[j] = bl.split(j, r[j])
	}
	return w
}

// next fills s, whose regions the caller provides, with the next non-empty
// sub-region in odometer order — so partial results merge back
// deterministically — and reports false when there is none left.
func (w *decomposition) next(s *subRegion) bool {
	for w.splits != nil {
		s.keep = 0
		empty := false
		for j := range w.splits {
			ds := &w.splits[j]
			s.sub[j] = ds.parts[ds.cur]
			s.super[j] = ds.superRange(ds.kinds[ds.cur])
			s.block[j] = ndarray.Range{Lo: s.super[j].Lo / w.bs[j], Hi: s.super[j].Hi / w.bs[j]}
			if ds.kinds[ds.cur] != kindMid {
				s.keep |= 1 << j
			}
			empty = empty || s.sub[j].Empty()
		}
		j := len(w.splits) - 1
		for ; j >= 0; j-- {
			if w.splits[j].cur++; w.splits[j].cur < w.splits[j].n {
				break
			}
			w.splits[j].cur = 0
		}
		if j < 0 {
			w.splits = nil
		}
		if !empty {
			return true
		}
	}
	return false
}

// plan picks the array a boundary region is scanned in and, by the §4.2 rule
// applied to the volumes in that array, between scanning the region and
// scanning its complement in the superblock.
func (bl *Array[T, G]) plan(p *piece[T]) {
	p.arr = bl.a
	if bl.edges != nil && bl.edges[p.keep] != nil {
		p.arr = bl.edges[p.keep]
		for j := range p.sub {
			if p.keep&(1<<j) == 0 { // aligned here, so R and B are the same run of whole blocks
				p.sub[j], p.super[j] = p.block[j], p.block[j]
			}
		}
	}
	volR := p.sub.Volume()
	volC := p.super.Volume() - volR
	p.direct = volR <= volC+(1<<len(p.sub))-1
}

// Sum answers Sum(ℓ1:h1, ..., ℓd:hd) with the §4.2 blocked algorithm. The
// region must lie within the cube bounds; an empty region yields the group
// identity. Costs are attributed to c: packed prefix-sum and edge-array
// reads as Aux, original-cube reads as Cells.
func (bl *Array[T, G]) Sum(r ndarray.Region, c *metrics.Counter) T {
	v, _, _, _ := bl.sum(nil, r, c, false) // a nil context never cancels
	return v
}

// SumContext is Sum with cooperative cancellation: the boundary scans of
// the §4.2 decomposition checkpoint ctx every ~64k cells, so a canceled or
// expired request abandons the query within a bounded number of cell
// visits instead of holding its lock for the full scan. On cancellation it
// returns ctx's error and a meaningless partial value; the counter reflects
// only the work actually done.
func (bl *Array[T, G]) SumContext(ctx context.Context, r ndarray.Region, c *metrics.Counter) (T, error) {
	v, _, _, err := bl.sum(ctx, r, c, false)
	return v, err
}

// sum evaluates one decomposition, folding each piece in odometer order as the
// walk yields it: the exact value, costed to c, and when bounds is set the
// §11 bounds of the same pieces, whose packed reads are kept out of c.
func (bl *Array[T, G]) sum(ctx context.Context, r ndarray.Region, c *metrics.Counter, bounds bool) (total, lo, hi T, err error) {
	if slices.Max(bl.bs) == 1 && !r.Empty() {
		// Every b_j = 1, §4's degenerate case, which is §3: the decomposition
		// is one piece, the internal region r itself, one packed (P) lookup in
		// one step, exact, so its bounds are its value. Taken without the walk
		// it costs what the walk counts, allocates nothing and, being 2^d
		// lookups, has no scan for a canceled ctx to abandon.
		total = bl.packedSum(r, c)
		c.AddSteps(1)
		return total, total, total, nil
	}
	total, lo, hi = bl.g.Identity(), bl.g.Identity(), bl.g.Identity()
	w := bl.decompose(r)
	p := piece[T]{subRegion: subRegionOver(make([]ndarray.Range, 3*len(r)))}
	ck := ctxcheck.New(ctx)
	for w.next(&p.subRegion) {
		if p.keep != 0 {
			bl.plan(&p)
		}
		v, err := bl.eval(&p, c, ck)
		if err != nil {
			return total, lo, hi, err
		}
		total = bl.g.Combine(total, v)
		if !bounds {
			continue
		}
		if p.keep != 0 {
			v = bl.packedSum(p.block, nil)
		} else {
			lo = bl.g.Combine(lo, v)
		}
		hi = bl.g.Combine(hi, v)
	}
	return total, lo, hi, nil
}

// eval answers one piece: the internal region in up to 2^d packed accesses,
// a boundary region by the scans its plan chose.
func (bl *Array[T, G]) eval(p *piece[T], c *metrics.Counter, ck *ctxcheck.Checker) (T, error) {
	if p.keep == 0 {
		if err := ck.Tick(1); err != nil {
			return bl.g.Identity(), err
		}
		v := bl.packedSum(p.block, c)
		c.AddSteps(1)
		return v, nil
	}
	var total T
	var err error
	if p.direct {
		total, err = bl.scan(p.arr, p.sub, c, ck)
	} else {
		// Superblock sum (pure prefix-sum accesses) minus the complement.
		total = bl.packedSum(p.block, c)
		forEachComplementSlab(p.super, p.sub, func(slab ndarray.Region) {
			if err != nil {
				return
			}
			var part T
			if part, err = bl.scan(p.arr, slab, c, ck); err != nil {
				return
			}
			total = bl.g.Inverse(total, part)
			c.AddSteps(1)
		})
	}
	if err != nil {
		return total, err
	}
	c.AddSteps(1)
	return total, nil
}

// scan sums region r of arr — the cube or an edge array — directly, one
// contiguous innermost-axis line at a time, accounting the counter once per
// scan rather than once per entry (totals are unchanged).
func (bl *Array[T, G]) scan(arr *ndarray.Array[T], r ndarray.Region, c *metrics.Counter, ck *ctxcheck.Checker) (T, error) {
	total := bl.g.Identity()
	data := arr.Data()
	cells := int64(0)
	var err error
	ndarray.ForEachLine(arr, r, func(ln ndarray.Line) {
		// The checkpoint fires between lines; a canceled query skips the
		// remaining lines (their descriptors are still enumerated, but no
		// cells are touched or accounted).
		if err != nil {
			return
		}
		if err = ck.Tick(int64(ln.Len)); err != nil {
			return
		}
		row := data[ln.Off : ln.Off+ln.Len]
		for _, v := range row {
			total = bl.g.Combine(total, v)
		}
		cells += int64(ln.Len)
	})
	if arr == bl.a {
		c.AddCells(cells)
	} else {
		c.AddAux(cells)
	}
	c.AddSteps(cells)
	return total, err
}

// forEachComplementSlab decomposes super \ r into disjoint rectangular
// slabs and visits each; the slab is reused between visits. It relies on
// r[j] ⊆ super[j] per dimension and the identity
// B \ R = ⋃_j (R_1×…×R_{j−1} × (B_j∖R_j) × B_{j+1}×…×B_d), where B_j ∖ R_j
// is at most two intervals (one below r[j], one above).
func forEachComplementSlab(super, r ndarray.Region, visit func(ndarray.Region)) {
	d := len(r)
	slab := make(ndarray.Region, d)
	for j := 0; j < d; j++ {
		gaps := [2]ndarray.Range{
			{Lo: super[j].Lo, Hi: r[j].Lo - 1},
			{Lo: r[j].Hi + 1, Hi: super[j].Hi},
		}
		for _, gap := range gaps {
			if gap.Empty() {
				continue
			}
			for i := 0; i < j; i++ {
				slab[i] = r[i]
			}
			slab[j] = gap
			for i := j + 1; i < d; i++ {
				slab[i] = super[i]
			}
			if !slab.Empty() {
				visit(slab)
			}
		}
	}
}

// Cell returns a single cube cell (directly — the cube is retained).
func (bl *Array[T, G]) Cell(coords []int, c *metrics.Counter) T {
	c.AddCells(1)
	return bl.a.At(coords...)
}
