// Package maxtree implements the paper's range-max algorithm (§6): a
// balanced b^d-ary tree (a generalized quad-tree) over the data cube, each
// node storing the index of the maximum value in the region it covers, and
// a branch-and-bound search that prunes every subtree whose precomputed
// maximum cannot beat the current candidate.
//
// MAX has no inverse operator, so the prefix-sum trick does not apply; the
// tree exploits instead the property that if some i ∈ S2 has
// i ≥ max(S1) then max(S2) = max(S2 − S1) (§1). MIN is the mirror image
// and is provided by the same tree with an inverted comparison.
//
// The batch-update protocol of §7 lives in update.go.
package maxtree

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"rangecube/internal/ctxcheck"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
)

// Tree is the precomputed hierarchy. Level 0 is the cube itself; level i>0
// is a contracted grid of ⌈nj/b^i⌉ per dimension whose node (k1,...,kd)
// covers the cube region [kj·b^i, min((kj+1)·b^i−1, nj−1)] per dimension.
type Tree[T cmp.Ordered] struct {
	a      *ndarray.Array[T]
	b      int
	min    bool // when true the tree answers range-MIN instead of range-MAX
	levels []level[T]
	repair repairBufs[T]
	// descents recycles the searches' scratch (*descent[T]), so a MaxIndex
	// allocates nothing.
	descents sync.Pool
}

// level holds one contracted grid: the best value in each node's region and
// the flat offset (into the cube) where it occurs.
type level[T cmp.Ordered] struct {
	vals *ndarray.Array[T]
	offs []int
}

// Build constructs a range-max tree with fanout b per dimension (total
// fanout b^d). The cube is retained by reference; see BatchUpdate for
// keeping the tree consistent under updates.
func Build[T cmp.Ordered](a *ndarray.Array[T], b int) *Tree[T] {
	t, _ := build(a, b, true, false)
	return t
}

// BuildMin constructs a range-min tree; everything else is identical.
func BuildMin[T cmp.Ordered](a *ndarray.Array[T], b int) *Tree[T] {
	_, t := build(a, b, false, true)
	return t
}

// BuildBoth constructs the max and the min tree of a in one walk per level,
// each equal to what Build and BuildMin return.
func BuildBoth[T cmp.Ordered](a *ndarray.Array[T], b int) (max, min *Tree[T]) {
	return build(a, b, true, true)
}

// build constructs the trees asked for; the other is nil.
func build[T cmp.Ordered](a *ndarray.Array[T], b int, wantMax, wantMin bool) (mx, mn *Tree[T]) {
	if b < 2 {
		panic(fmt.Sprintf("maxtree: fanout %d < 2", b))
	}
	if wantMax {
		mx = &Tree[T]{a: a, b: b}
	}
	if wantMin {
		mn = &Tree[T]{a: a, b: b, min: true}
	}
	// Build levels bottom-up until a single node covers everything, exactly
	// as §6.1.1/§6.2 describe; dimensions whose extent reaches 1 simply stop
	// contracting (the tree "degenerates into a lower dimension").
	for below := a; slices.Max(below.Shape()) > 1; {
		below = contract(mx, mn, below)
	}
	return mx, mn
}

// contract adds the next level to each non-nil tree in one walk of the level
// below, which has the same shape in both: every b×...×b block of it is
// reduced to its best entry. The walk is line-oriented and fanned out across
// the worker pool by slabs of the contracted leading dimension (disjoint
// output nodes per worker); within a slab cells are still visited in storage
// order, so ties resolve exactly as in a sequential walk — the first
// candidate in storage order wins. It returns the new level's values (either
// tree's: only the shape is read).
func contract[T cmp.Ordered](mx, mn *Tree[T], below *ndarray.Array[T]) *ndarray.Array[T] {
	t := cmp.Or(mx, mn)
	b, shape := t.b, below.Shape()
	nshape, bs := make([]int, len(shape)), make([]int, len(shape))
	for i, n := range shape {
		nshape[i], bs[i] = (n+b-1)/b, b
	}
	xv, xo, xd := mx.grow(nshape)
	nv, no, nd := mn.grow(nshape)
	next := t.levels[len(t.levels)-1].vals
	ndarray.ContractSlabs(below, bs, next.Strides(), func(off, lo, hi, cbase int) {
		// A run is the first to touch all of its slots, or none of them: the
		// first when its line starts a block in every outer dimension.
		first := true
		for j, line := len(shape)-2, off/shape[len(shape)-1]; j >= 0; j-- {
			first = first && line%shape[j]%b == 0
			line /= shape[j]
		}
		slot, i := cbase+lo/b, off+lo
		switch {
		case mn == nil:
			foldMax(xv[slot:], xo[slot:], xd[:off+hi], i, b, first)
		case mx == nil:
			foldMin(nv[slot:], no[slot:], nd[:off+hi], i, b, first)
		default:
			foldBoth(xv[slot:], xo[slot:], xd[:off+hi], nv[slot:], no[slot:], nd[:off+hi], i, b, first)
		}
	})
	mx.remap()
	mn.remap()
	return next
}

// grow appends an empty level of shape nshape to t and returns its values
// and offsets with the values of the level below (the cube's, under level
// 1). A nil t grows nothing.
func (t *Tree[T]) grow(nshape []int) (vals []T, offs []int, below []T) {
	if t == nil {
		return nil, nil, nil
	}
	below = t.a.Data()
	if n := len(t.levels); n > 0 {
		below = t.levels[n-1].vals.Data()
	}
	lv := level[T]{vals: ndarray.New[T](nshape...)}
	lv.offs = make([]int, lv.vals.Size())
	t.levels = append(t.levels, lv)
	return lv.vals.Data(), lv.offs, below
}

// remap turns the top level's winners, found as indices into the level
// below, into cube offsets through that level's own. Under level 1 lies the
// cube, where entry i sits at offset i, so there is nothing to map; a nil t
// maps nothing.
func (t *Tree[T]) remap() {
	if t == nil || len(t.levels) < 2 {
		return
	}
	prev, offs := t.levels[len(t.levels)-2].offs, t.levels[len(t.levels)-1].offs
	for k, i := range offs {
		offs[k] = prev[i]
	}
}

// foldMax folds data[i:] into vals and offs, b cells to a slot, keeping the
// first maximum of each block and its index into data. i is on a block
// edge; seed starts each slot from its block's first cell instead of from
// what the slot holds. The strict > keeps ties with the earlier cell and
// compiles to conditional moves.
func foldMax[T cmp.Ordered](vals []T, offs []int, data []T, i, b int, seed bool) {
	for s := 0; i < len(data); s++ {
		blk := data[i:min(i+b, len(data))]
		v, o := vals[s], offs[s]
		if seed {
			v, o = blk[0], i
		}
		for k, x := range blk {
			if x > v {
				v, o = x, i+k
			}
		}
		vals[s], offs[s] = v, o
		i += len(blk)
	}
}

// foldMin is foldMax with the comparison mirrored.
func foldMin[T cmp.Ordered](vals []T, offs []int, data []T, i, b int, seed bool) {
	for s := 0; i < len(data); s++ {
		blk := data[i:min(i+b, len(data))]
		v, o := vals[s], offs[s]
		if seed {
			v, o = blk[0], i
		}
		for k, x := range blk {
			if x < v {
				v, o = x, i+k
			}
		}
		vals[s], offs[s] = v, o
		i += len(blk)
	}
}

// foldBoth is foldMax into xv and xo over xd beside foldMin into nv and no
// over nd, in one pass: xd and nd are the two trees' levels below, one slice
// (the cube) under level 1. The two compare/select chains are independent,
// so the core runs them side by side.
func foldBoth[T cmp.Ordered](xv []T, xo []int, xd []T, nv []T, no []int, nd []T, i, b int, seed bool) {
	n := (len(xd) - i + b - 1) / b
	xv, xo, nv, no, nd = xv[:n], xo[:n], nv[:n], no[:n], nd[:len(xd)]
	for s := range xv {
		end := min(i+b, len(xd))
		hv, ho, lv, lo := xv[s], xo[s], nv[s], no[s]
		if seed {
			hv, ho, lv, lo = xd[i], i, nd[i], i
		}
		for k := i; k < end; k++ {
			if x := xd[k]; x > hv {
				hv, ho = x, k
			}
			if x := nd[k]; x < lv {
				lv, lo = x, k
			}
		}
		xv[s], xo[s], nv[s], no[s] = hv, ho, lv, lo
		i = end
	}
}

// better reports whether x beats y under the tree's ordering. Ties are not
// better, so the first candidate in visit order wins, matching the paper's
// "arbitrarily returns one of the indices" allowance.
func (t *Tree[T]) better(x, y T) bool {
	if t.min {
		return x < y
	}
	return x > y
}

// Cube returns the underlying data cube.
func (t *Tree[T]) Cube() *ndarray.Array[T] { return t.a }

// Fanout returns b, the per-dimension fanout.
func (t *Tree[T]) Fanout() int { return t.b }

// IsMin reports whether the tree answers range-MIN instead of range-MAX.
func (t *Tree[T]) IsMin() bool { return t.min }

// Height returns the number of non-leaf levels, ⌈log_b max_j nj⌉.
func (t *Tree[T]) Height() int { return len(t.levels) }

// Nodes returns the total number of non-leaf tree nodes (auxiliary space).
func (t *Tree[T]) Nodes() int {
	n := 0
	for _, lv := range t.levels {
		n += lv.vals.Size()
	}
	return n
}

// pow returns b^i, clamped only by int width (extents are ints).
func pow(b, i int) int {
	p := 1
	for ; i > 0; i-- {
		p *= b
	}
	return p
}

// cover returns the cube region covered by node k at the given level
// (level ≥ 1), C(x) in the paper's notation.
func (t *Tree[T]) cover(levelIdx int, nodeCoords []int) ndarray.Region {
	side := pow(t.b, levelIdx)
	r := make(ndarray.Region, len(nodeCoords))
	for j, k := range nodeCoords {
		lo := k * side
		hi := lo + side - 1
		if n := t.a.Shape()[j]; hi >= n {
			hi = n - 1
		}
		r[j] = ndarray.Range{Lo: lo, Hi: hi}
	}
	return r
}

// MaxIndex answers Max_index(ℓ1:h1, ..., ℓd:hd) (§2): the flat cube offset
// and value of a maximum cell of the region (minimum for a BuildMin tree).
// ok is false for an empty region. Costs are attributed to c: node-maximum
// reads as Aux, cube-cell reads as Cells, comparisons as Steps.
func (t *Tree[T]) MaxIndex(r ndarray.Region, c *metrics.Counter) (offset int, value T, ok bool) {
	offset, value, ok, _ = t.maxIndex(nil, r, c) // a nil context never cancels
	return offset, value, ok
}

// MaxIndexContext is MaxIndex with cooperative cancellation: the
// branch-and-bound search checkpoints ctx roughly every 64k visited cells
// (leaf-block scans dominate its cost), so a canceled or expired request
// abandons the search within a bounded number of visits instead of holding
// its read lock for the full descent. On cancellation it returns ctx's
// error and a meaningless partial candidate; the counter reflects only the
// work actually done.
func (t *Tree[T]) MaxIndexContext(ctx context.Context, r ndarray.Region, c *metrics.Counter) (offset int, value T, ok bool, err error) {
	return t.maxIndex(ctx, r, c)
}

func (t *Tree[T]) maxIndex(ctx context.Context, r ndarray.Region, c *metrics.Counter) (offset int, value T, ok bool, err error) {
	d := t.a.Dims()
	if len(r) != d {
		panic(fmt.Sprintf("maxtree: query of dimension %d against cube of dimension %d", len(r), d))
	}
	var zero T
	if r.Empty() {
		return 0, zero, false, nil
	}
	shape := t.a.Shape()
	for j, rng := range r {
		if rng.Lo < 0 || rng.Hi >= shape[j] {
			panic(fmt.Sprintf("maxtree: query %v out of bounds for shape %v", r, shape))
		}
	}
	// Find the lowest-level node x with R ⊆ C(x) (§6.1.2): the smallest L
	// such that ℓj and hj fall in the same level-L block in every
	// dimension. This is what bounds the worst case by O(b log_b r) rather
	// than O(b log_b n).
	lvl := 0
	side := 1
	for {
		same := true
		for j := range r {
			if r[j].Lo/side != r[j].Hi/side {
				same = false
				break
			}
		}
		if same {
			break
		}
		lvl++
		side *= t.b
	}
	if lvl == 0 {
		// Single-cell query (after the block alignment the region is one
		// cell of the cube).
		off := 0
		for j := range r {
			off += r[j].Lo * t.a.Strides()[j]
		}
		c.AddCells(1)
		return off, t.a.Data()[off], true, nil
	}
	lv := t.levels[lvl-1]
	noff := 0
	for j, st := range lv.vals.Strides() {
		noff += r[j].Lo / side * st
	}
	c.AddAux(1)
	if t.holds(r, lv.offs[noff]) {
		// Line (4)-(5) of Max_index: the covering node's maximum already
		// falls inside R.
		return lv.offs[noff], lv.vals.Data()[noff], true, nil
	}
	// Initialize the candidate to the region's low corner, as the paper
	// does (current_max_index = ℓ), then branch-and-bound downward.
	s, _ := t.descents.Get().(*descent[T])
	if s == nil {
		s = new(descent[T])
	}
	s.t, s.c, s.ck = t, c, s.check.Reset(ctx)
	s.off = 0
	for j := range r {
		s.off += r[j].Lo * t.a.Strides()[j]
	}
	c.AddCells(1)
	s.val = t.a.Data()[s.off]
	s.nodes, s.regs = s.nodes[:0], append(s.regs[:0], r...)
	for j := range r {
		s.nodes = append(s.nodes, r[j].Lo/side)
	}
	err = s.descend(lvl, 0)
	offset, value = s.off, s.val
	s.t, s.c, s.ck, s.check = nil, nil, nil, ctxcheck.Checker{}
	t.descents.Put(s)
	return offset, value, true, err
}

// holds reports whether the cube cell at offset off lies in r.
func (t *Tree[T]) holds(r ndarray.Region, off int) bool {
	for j, st := range t.a.Strides() {
		if x := off / st; x < r[j].Lo || x > r[j].Hi {
			return false
		}
		off %= st
	}
	return true
}

// MaxBounds implements the §11 approximate answer for range-max: a lower
// and an upper bound on Max(R) from O(1) accesses, to be returned to the
// user while the exact branch-and-bound search runs. The upper bound is
// the precomputed maximum of the lowest-level node covering R; the lower
// bound is the value at R's low corner (any cell of R works). When the
// covering node's argmax falls inside R the bounds coincide and are exact.
func (t *Tree[T]) MaxBounds(r ndarray.Region, c *metrics.Counter) (lo, hi T, exact bool) {
	d := t.a.Dims()
	if len(r) != d {
		panic(fmt.Sprintf("maxtree: query of dimension %d against cube of dimension %d", len(r), d))
	}
	var zero T
	if r.Empty() {
		return zero, zero, true
	}
	shape := t.a.Shape()
	for j, rng := range r {
		if rng.Lo < 0 || rng.Hi >= shape[j] {
			panic(fmt.Sprintf("maxtree: query %v out of bounds for shape %v", r, shape))
		}
	}
	lvl := 0
	side := 1
	for {
		same := true
		for j := range r {
			if r[j].Lo/side != r[j].Hi/side {
				same = false
				break
			}
		}
		if same {
			break
		}
		lvl++
		side *= t.b
	}
	cornerOff := 0
	for j := range r {
		cornerOff += r[j].Lo * t.a.Strides()[j]
	}
	c.AddCells(1)
	lo = t.a.Data()[cornerOff]
	if lvl == 0 {
		return lo, lo, true
	}
	lv := t.levels[lvl-1]
	noff := 0
	for j, st := range lv.vals.Strides() {
		noff += r[j].Lo / side * st
	}
	c.AddAux(1)
	hi = lv.vals.Data()[noff]
	if t.holds(r, lv.offs[noff]) {
		return hi, hi, true
	}
	if t.min {
		// For a MIN tree the node value bounds from below and the corner
		// from above; keep the lo ≤ answer ≤ hi contract.
		lo, hi = hi, lo
	}
	return lo, hi, false
}

// descent is one Max_index search: the candidate, and a stack of nodes to
// search, each its coordinates in its level's grid and its part of the query
// region, d of each per node. Entry 0 is the node covering R; each
// scanChildren pushes the Bout children it defers and their descend pops
// them. The tree pools descents, so once the stack has grown to a search's
// depth a search allocates nothing.
type descent[T cmp.Ordered] struct {
	t      *Tree[T]
	c      *metrics.Counter
	ck     *ctxcheck.Checker // nil, or &check
	check  ctxcheck.Checker
	off    int // the candidate's cube offset
	val    T   // and value
	nodes  []int
	regs   []ndarray.Range
	cursor []int // an odometer over a node's children or a region's lines
}

// descend is the paper's get_max_index for stack entry e, a node at
// levelIdx whose covered region holds its region: it scans the node's
// children, first the internal and Bin children (whose stored maxima are
// usable directly), then recurses into Bout children that can still beat the
// candidate.
func (s *descent[T]) descend(levelIdx, e int) error {
	t, d := s.t, s.t.a.Dims()
	if levelIdx == 1 {
		// Children are cube cells, and the node's region lies inside its
		// block: every cell of the region is a candidate. The region is
		// scanned one contiguous line at a time in storage order, with the
		// counter accounted per line (totals match per-cell accounting). The
		// cancellation checkpoint fires between lines; once it reports an
		// error the remaining lines are skipped, untouched and unaccounted.
		r := s.regs[e*d : e*d+d]
		data, strides := t.a.Data(), t.a.Strides()
		at := s.odometer(d)
		last := d - 1
		n, off := r[last].Len(), 0
		for j := range r {
			off += r[j].Lo * strides[j]
		}
		cells := int64(0)
		var err error
		for {
			if err = s.ck.Tick(int64(n)); err != nil {
				break
			}
			for i, v := range data[off : off+n] {
				if t.better(v, s.val) {
					s.off, s.val = off+i, v
				}
			}
			cells += int64(n)
			j := last - 1
			for ; j >= 0; j-- {
				off += strides[j]
				if at[j]++; at[j] < r[j].Len() {
					break
				}
				off -= at[j] * strides[j]
				at[j] = 0
			}
			if j < 0 {
				break
			}
		}
		s.c.AddCells(cells)
		s.c.AddSteps(cells)
		return err
	}

	base := len(s.nodes) / d
	err := s.scanChildren(levelIdx, e)
	lv := t.levels[levelIdx-2]
	// Lines (4)-(6): recurse into boundary children only if their
	// precomputed maximum can still beat the candidate — the
	// branch-and-bound pruning.
	for k := base; err == nil && k < len(s.nodes)/d; k++ {
		s.c.AddSteps(1)
		noff := 0
		for j, st := range lv.vals.Strides() {
			noff += s.nodes[k*d+j] * st
		}
		if t.better(lv.vals.Data()[noff], s.val) {
			err = s.descend(levelIdx-1, k)
		}
	}
	s.nodes, s.regs = s.nodes[:base*d], s.regs[:base*d]
	return err
}

// odometer returns the zeroed cursor for a walk over d dimensions.
func (s *descent[T]) odometer(d int) []int {
	s.cursor = append(s.cursor[:0], make([]int, d)...)
	return s.cursor
}

// scanChildren is the first pass of get_max_index over the children of
// stack entry e at levelIdx (which must be ≥ 2, so the children are tree
// nodes, not cells), in storage order. External children, which lie outside
// the entry's region, are not visited; internal and Bin children fold their
// stored maxima into the candidate in visit order, and Bout children are
// pushed — in the same visit order — for the caller's pruned recursion, with
// their covered region clipped to the entry's.
func (s *descent[T]) scanChildren(levelIdx, e int) error {
	t, d := s.t, s.t.a.Dims()
	lv := t.levels[levelIdx-2]
	side := pow(t.b, levelIdx-1)
	shape, vals := t.a.Shape(), lv.vals.Data()
	// The children meeting the region are a box of the child grid, since the
	// region lies inside the node's block.
	k := s.odometer(d)
	for j := range k {
		k[j] = s.regs[e*d+j].Lo / side
	}
	for {
		if err := s.ck.Tick(1); err != nil {
			return err
		}
		r := s.regs[e*d : e*d+d]
		internal := true
		noff := 0
		for j, kj := range k {
			lo := kj * side
			hi := min(lo+side-1, shape[j]-1)
			if lo < r[j].Lo || hi > r[j].Hi {
				internal = false
			}
			noff += kj * lv.vals.Strides()[j]
		}
		s.c.AddAux(1)
		if internal || t.holds(r, lv.offs[noff]) {
			// I(x,R) ∪ Bin(x,R): the stored maximum is inside R.
			s.c.AddSteps(1)
			if t.better(vals[noff], s.val) {
				s.off, s.val = lv.offs[noff], vals[noff]
			}
		} else {
			// Bout(x,R): C(y) ∩ R, deferred.
			s.nodes = append(s.nodes, k...)
			for j, kj := range k {
				lo := kj * side
				hi := min(lo+side-1, shape[j]-1)
				s.regs = append(s.regs, ndarray.Range{Lo: max(lo, s.regs[e*d+j].Lo), Hi: min(hi, s.regs[e*d+j].Hi)})
			}
		}
		j := d - 1
		for ; j >= 0; j-- {
			if k[j]++; k[j] <= s.regs[e*d+j].Hi/side {
				break
			}
			k[j] = s.regs[e*d+j].Lo / side
		}
		if j < 0 {
			return nil
		}
	}
}
