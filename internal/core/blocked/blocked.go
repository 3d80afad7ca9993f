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
// boundary region is then read from the cube contracted over the dimensions
// in which it is block-aligned, and the §4.2 choice is made per dimension.
package blocked

import (
	"context"
	"fmt"
	"math/bits"
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
	edges []*edgeArray[T]
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

// subRegionOver returns a subRegion whose three d-dimensional regions lie in
// buf when it has room for them.
func subRegionOver(buf []ndarray.Range, d int) subRegion {
	if len(buf) < 3*d {
		buf = make([]ndarray.Range, 3*d)
	}
	return subRegion{sub: buf[:d:d], super: buf[d : 2*d : 2*d], block: buf[2*d : 3*d]}
}

// gaps returns the gap G_j = B_j ∖ R_j in dimension j as its part below R_j
// and its part above, either possibly empty.
func (s *subRegion) gaps(j int) (below, above ndarray.Range) {
	return ndarray.Range{Lo: s.super[j].Lo, Hi: s.sub[j].Lo - 1}, ndarray.Range{Lo: s.sub[j].Hi + 1, Hi: s.super[j].Hi}
}

// piece is a sub-region and how Sum answers it: the internal region is one
// packed lookup of block, a boundary region the terms plan chose.
type piece struct {
	subRegion
	// cmp is the set C of partial dimensions in which eval writes R_j as
	// B_j − G_j; none scans R itself.
	cmp uint
}

// decomposition is the one walk over the §4.2 decomposition that Sum, Bounds
// and SumBoundsContext share: an odometer over the per-dimension sub-ranges.
type decomposition struct {
	bs     []int
	splits []dimSplit // nil once exhausted
}

// decompose splits r per dimension, into buf when it has room for d splits.
// The region must lie within the cube bounds; an empty region has no pieces.
func (bl *Array[T, G]) decompose(r ndarray.Region, buf []dimSplit) decomposition {
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
	if len(buf) < d {
		buf = make([]dimSplit, d)
	}
	w := decomposition{bs: bl.bs, splits: buf[:d]}
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

// plan picks, by the §4.2 rule — fewest predicted §8 accesses — the set C of
// a boundary region's partial dimensions K in which eval writes R_j as the
// superblock range minus the gap. The paper's structure has only the cube to
// read, so C is none (scan R) or all of K (scan B ∖ R), a packed read costing
// 2^d − 1 lookups as in §4.2. With edge arrays C may be any subset of K: a
// term of C's expansion is R_j in K∖C, one block or the gap in C, and the
// aligned blocks in m entries elsewhere, so the terms of C read
// m·∏_{K∖C}|R_j|·∏_C(1+|G_j|) entries, but for the packed read that replaces
// C = K's first. That read is costed at its exact count — 2^d lookups less
// the corners below index 0 — so every option is costed as eval reads it, and
// no plan reads more than the paper's structure does.
func (bl *Array[T, G]) plan(p *piece) {
	if bl.edges == nil {
		volR := p.sub.Volume()
		p.cmp = 0
		if volR > p.super.Volume()-volR+1<<len(p.sub)-1 {
			p.cmp = p.keep
		}
		return
	}
	m, lookups := 1, 1
	for j, blk := range p.block {
		if p.keep&(1<<j) == 0 {
			m *= blk.Len()
		}
		if blk.Lo > 0 {
			lookups *= 2
		}
	}
	best := -1
	for c := uint(0); ; c = (c - p.keep) & p.keep { // every subset of K, ∅ first
		cost := m
		for j, r := range p.sub {
			if bit := uint(1) << j; c&bit != 0 {
				cost *= 1 + p.super[j].Len() - r.Len()
			} else if p.keep&bit != 0 {
				cost *= r.Len()
			}
		}
		if c == p.keep {
			cost += lookups - m
		}
		if best < 0 || cost < best {
			best, p.cmp = cost, c
		}
		if c == p.keep {
			return
		}
	}
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
// §11 bounds of the same pieces, whose packed reads are kept out of c. For
// d ≤ 4 it allocates nothing.
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
	var splits [4]dimSplit
	var ranges [3 * 4]ndarray.Range
	w := bl.decompose(r, splits[:])
	p := piece{subRegion: subRegionOver(ranges[:], len(r))}
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

// eval answers one piece: the internal region in up to 2^d packed accesses, a
// boundary region by the terms its plan chose. With R_j = B_j − G_j in each
// dimension of C, inclusion–exclusion writes R as Σ_{S⊆C} (−1)^|S| G_S ×
// B_{C∖S} × R_{K∖C}. Such a term is block-aligned outside S ∪ (K∖C), so it is
// read from the array that keeps exactly those dimensions: packed when there
// are none, the cube when they are every blocked one, an edge array otherwise;
// a gap on both sides of R_j makes two terms of one. The paper's structure
// reads B ∖ R in disjoint slabs of the cube instead (complement).
func (bl *Array[T, G]) eval(p *piece, c *metrics.Counter, ck *ctxcheck.Checker) (T, error) {
	if p.keep == 0 {
		if err := ck.Tick(1); err != nil {
			return bl.g.Identity(), err
		}
		v := bl.packedSum(p.block, c)
		c.AddSteps(1)
		return v, nil
	}
	var buf [4]ndarray.Range
	reg := ndarray.Region(buf[:])
	if len(p.sub) > len(buf) {
		reg = make(ndarray.Region, len(p.sub))
	}
	reg = reg[:len(p.sub)]
	if p.cmp != 0 && bl.edges == nil {
		return bl.complement(p, reg, c, ck)
	}
	total := bl.g.Identity()
	for s := uint(0); ; s = (s - p.cmp) & p.cmp { // every S ⊆ C, ∅ first
		keep := s | p.keep&^p.cmp
		if keep == 0 { // C = K, S = ∅: the superblock
			total = bl.packedSum(p.block, c)
		} else {
			var arr *edgeArray[T] // nil: the cube
			if bl.edges != nil {
				arr = bl.edges[keep]
			}
			both := uint(0) // the dimensions of S with a gap on both sides of R_j
			for j := range reg {
				bit := uint(1) << j
				switch {
				case keep&bit == 0 && arr != nil: // whole blocks: B_j, or aligned
					reg[j] = p.block[j]
				case s&bit == 0: // R_j, or aligned in the cube
					reg[j] = p.sub[j]
				default:
					if below, above := p.gaps(j); !below.Empty() && !above.Empty() {
						both |= bit
					}
				}
			}
			for side := uint(0); ; side = (side - both) & both { // below before above
				for j := range reg {
					if s&(1<<j) != 0 {
						below, above := p.gaps(j)
						if reg[j] = below; below.Empty() || side&(1<<j) != 0 {
							reg[j] = above
						}
					}
				}
				v, err := bl.scan(arr, reg, c, ck)
				if err != nil {
					return total, err
				}
				if bits.OnesCount(s)%2 == 1 {
					total = bl.g.Inverse(total, v)
				} else {
					total = bl.g.Combine(total, v)
				}
				if s != 0 {
					c.AddSteps(1)
				}
				if side == both {
					break
				}
			}
		}
		if s == p.cmp {
			break
		}
	}
	c.AddSteps(1)
	return total, nil
}

// complement is the paper's method 2 for a region of its structure: the
// superblock sum minus B ∖ R, read from the cube as the disjoint slabs
// R_1×…×R_{j−1} × (B_j∖R_j) × B_{j+1}×…×B_d, B_j ∖ R_j being at most two
// ranges. reg is scratch of the region's dimension.
func (bl *Array[T, G]) complement(p *piece, reg ndarray.Region, c *metrics.Counter, ck *ctxcheck.Checker) (T, error) {
	total := bl.packedSum(p.block, c)
	copy(reg, p.super)
	for j := range reg {
		below, above := p.gaps(j)
		for _, gap := range [2]ndarray.Range{below, above} {
			if reg[j] = gap; reg.Empty() {
				continue
			}
			part, err := bl.scan(nil, reg, c, ck)
			if err != nil {
				return total, err
			}
			total = bl.g.Inverse(total, part)
			c.AddSteps(1)
		}
		reg[j] = p.sub[j]
	}
	c.AddSteps(1)
	return total, nil
}

// scan sums region r of arr — an edge array, or the cube when arr is nil —
// directly, one contiguous run of its innermost stored axis at a time,
// checkpointing ck per run and accounting the counter once per scan rather
// than once per entry. The canonical int64 SUM sums each run in a plain
// int64 loop.
func (bl *Array[T, G]) scan(arr *edgeArray[T], r ndarray.Region, c *metrics.Counter, ck *ctxcheck.Checker) (T, error) {
	total := bl.g.Identity()
	if r.Empty() {
		return total, nil
	}
	data, strides, order := bl.a.Data(), bl.a.Strides(), []int(nil)
	if arr != nil {
		data, strides, order = arr.data, arr.strides, arr.order
	}
	// axis is the dimension stored k-th from the outside.
	axis := func(k int) int {
		if order == nil {
			return k
		}
		return order[k]
	}
	last := len(r) - 1
	inner := axis(last)
	n, off, runs := r[inner].Len(), 0, 1
	for j, rng := range r {
		off += rng.Lo * strides[j]
		if j != inner {
			runs *= rng.Len()
		}
	}
	var buf [4]int // the run's position in r, by dimension
	at := buf[:]
	if len(r) > len(buf) {
		at = make([]int, len(r))
	}
	data64, _ := any(data).([]int64)
	if _, ok := any(bl.g).(algebra.IntSum); !ok {
		data64 = nil
	}
	var sum64 int64
	var err error
	done := 0
	for ; done < runs; done++ {
		// A canceled query stops between runs, having touched and
		// accounted only the runs before.
		if err = ck.Tick(int64(n)); err != nil {
			break
		}
		if data64 != nil {
			for _, v := range data64[off : off+n] {
				sum64 += v
			}
		} else {
			for _, v := range data[off : off+n] {
				total = bl.g.Combine(total, v)
			}
		}
		for k := last - 1; k >= 0; k-- {
			j := axis(k)
			off += strides[j]
			if at[j]++; at[j] < r[j].Len() {
				break
			}
			off -= at[j] * strides[j]
			at[j] = 0
		}
	}
	if data64 != nil {
		total = any(sum64).(T)
	}
	cells := int64(done * n)
	if arr == nil {
		c.AddCells(cells)
	} else {
		c.AddAux(cells)
	}
	c.AddSteps(cells)
	return total, err
}

// Cell returns a single cube cell (directly — the cube is retained).
func (bl *Array[T, G]) Cell(coords []int, c *metrics.Counter) T {
	c.AddCells(1)
	return bl.a.At(coords...)
}
