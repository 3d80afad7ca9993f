package blocked

import (
	"fmt"
	"slices"
	"sort"

	"rangecube/internal/algebra"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
)

// Edge arrays. §4.3's first build phase contracts the cube by b per
// dimension, and §9.2 lets the block size differ per dimension, b = 1 keeping
// a dimension at full resolution. A boundary sub-region of the §4.2
// decomposition is block-aligned in every dimension where it takes the
// middle sub-range, so it is a small region of the cube contracted in
// exactly those dimensions: a strip b cells thin and w cells long is b·w/b
// entries there instead of b·w cells of the cube. The edge array of a set S
// of dimensions is that contraction: cell resolution inside S, one entry per
// bs[j] cells outside it, and — unlike packed — not prefix-summed, which is
// what keeps an update at one entry per array (§5.2's reason for blocking).
//
// One array is kept for every non-empty proper subset S of the blocked
// dimensions: those whose block size and extent both exceed 1. A region is
// never partial in a b = 1 dimension, nor in an extent-1 one (split makes
// [0,0] its aligned middle), S = ∅ is the contraction packed is built from,
// and the full set is the cube itself, so none of those is stored. With k
// blocked dimensions that is 2^k − 2 arrays; with every b_j > 1 and n_j > 1,
// N·(∏(1+1/b_j) − 1 − ∏1/b_j) entries together.
//
// An array stores the dimensions it keeps outermost and those it contracts
// innermost, each group in ascending order: in 2-d the array keeping
// dimension 1 is [n1][⌈n0/b0⌉]. A boundary strip is thin in the kept
// dimensions and long in the contracted ones, so it is ∏|R_kept| runs of
// adjacent entries rather than rows an array's width apart.

// edgeArray is one edge array: its entries in storage order, the stride of
// each dimension and the dimensions from outermost to innermost.
type edgeArray[T any] struct {
	data    []T
	strides []int
	order   []int
}

// newEdgeArray lays out the cube of the given shape contracted by bs outside
// keep, its entries zero.
func newEdgeArray[T any](shape, bs []int, keep uint) *edgeArray[T] {
	d := len(shape)
	e := &edgeArray[T]{strides: make([]int, d), order: make([]int, 0, d)}
	for _, kept := range []bool{true, false} {
		for j := range d {
			if (keep&(1<<j) != 0) == kept {
				e.order = append(e.order, j)
			}
		}
	}
	size := 1
	for k := d - 1; k >= 0; k-- {
		j := e.order[k]
		e.strides[j] = size
		size *= contractedExtent(shape[j], bs[j], keep&(1<<j) != 0)
	}
	e.data = make([]T, size)
	return e
}

// contractedExtent is an extent of n cells contracted by b, or n kept.
func contractedExtent(n, b int, kept bool) int {
	if kept {
		return n
	}
	return (n + b - 1) / b
}

// BuildWithEdges is BuildDims plus the edge arrays, all filled in the same
// single storage-order walk of the cube. Sums, bounds and errors are those of
// the paper's structure; boundary scans read fewer entries, and ApplyQueued
// keeps the edge arrays current.
func BuildWithEdges[T any, G algebra.Group[T]](a *ndarray.Array[T], bs []int) *Array[T, G] {
	return build[T, G](a, bs, true)
}

// EdgeSize returns the number of entries the edge arrays hold together; 0
// for the paper's structure.
func (bl *Array[T, G]) EdgeSize() int {
	size := 0
	for _, e := range bl.edges {
		if e != nil {
			size += len(e.data)
		}
	}
	return size
}

// addToCell combines delta into the cube cell at coords and into the entry
// covering that cell in every edge array, and returns how many edge entries
// it wrote. Packed is not touched: ApplyQueued queues its half.
func (bl *Array[T, G]) addToCell(coords []int, delta T) int {
	data := bl.a.Data()
	off := bl.a.Offset(coords...)
	data[off] = bl.g.Combine(data[off], delta)
	written := 0
	for keep, e := range bl.edges {
		if e == nil {
			continue
		}
		eoff := contractedOffset(coords, bl.bs, e.strides, uint(keep))
		e.data[eoff] = bl.g.Combine(e.data[eoff], delta)
		written++
	}
	return written
}

// contractedOffset is the offset, in an array with the given strides that
// keeps the dimensions in keep at cell resolution and contracts the others by
// bs, of the entry covering the cell at coords. coords may be shorter than
// strides: the walk below passes line starts, which have no last coordinate.
func contractedOffset(coords, bs, strides []int, keep uint) int {
	off := 0
	for j, x := range coords {
		if keep&(1<<j) == 0 {
			x /= bs[j]
		}
		off += x * strides[j]
	}
	return off
}

// build is the two-phase §4.3 algorithm: contract A by summing each block,
// then prefix-sum the contracted array in place. Total work is at most
// N + dN/b^d steps and no buffer beyond the arrays kept is allocated. The
// edge arrays, when asked for, are further targets of the same phase 1.
func build[T any, G algebra.Group[T]](a *ndarray.Array[T], bs []int, withEdges bool) *Array[T, G] {
	d := a.Dims()
	if len(bs) != d {
		panic(fmt.Sprintf("blocked: %d block sizes for %d dimensions", len(bs), d))
	}
	blockedDims := uint(0)
	for j, n := range a.Shape() {
		b := bs[j]
		if b < 1 {
			panic(fmt.Sprintf("blocked: block size %d < 1 in dimension %d", b, j))
		}
		if b > 1 && n > 1 {
			blockedDims |= 1 << j
		}
	}
	var g G
	identity := func(data []T) { // New and make already hold IntSum's identity
		if _, zero := any(g).(algebra.IntSum); !zero {
			id := g.Identity()
			for i := range data {
				data[i] = id
			}
		}
	}
	bl := &Array[T, G]{a: a, bs: append([]int(nil), bs...)}
	// full is what §4.3 contracts A into, and packed once prefix-summed.
	fullShape := make([]int, d)
	for j, n := range a.Shape() {
		fullShape[j] = contractedExtent(n, bs[j], false)
	}
	full := ndarray.New[T](fullShape...)
	identity(full.Data())
	targets := []target[T]{{data: full.Data(), strides: full.Strides()}}
	if withEdges && blockedDims&(blockedDims-1) != 0 { // two blocked dimensions or more
		bl.edges = make([]*edgeArray[T], 1<<d)
		for keep := (blockedDims - 1) & blockedDims; keep != 0; keep = (keep - 1) & blockedDims {
			e := newEdgeArray[T](a.Shape(), bs, keep)
			identity(e.data)
			bl.edges[keep] = e
			targets = append(targets, newTarget(e, a.Shape(), bs, keep))
		}
	}
	// Phase 1: contract, into every target at once.
	contract[T, G](a, bs, targets)
	// Phase 2: prefix-sum the fully contracted array in place.
	bl.packed = prefixsum.Wrap[T, G](full)
	return bl
}

// target is one output of the contraction walk: the cube contracted by bs in
// every dimension outside keep, its entries and their strides. The walk
// writes a target laid out as it walks the cube, in natural order, in place.
// One stored in another order (an edge array keeping a dimension after one
// it contracts) takes one block-row of dimension 0 at a time in a worker's
// slab, in natural order, and stores it in its own order once it is done
// (store).
type target[T any] struct {
	keep    uint
	data    []T
	strides []int // per dimension, in data
	order   []int // the dimensions from outermost to innermost in data
	// For a target stored in another order: its natural shape and the
	// strides of a natural layout of it. shape is nil for a target written
	// in place.
	shape, natural []int
}

// newTarget is the target that fills edge array e.
func newTarget[T any](e *edgeArray[T], shape, bs []int, keep uint) target[T] {
	t := target[T]{keep: keep, data: e.data, strides: e.strides, order: e.order}
	if slices.IsSorted(e.order) {
		return t
	}
	d := len(shape)
	t.shape, t.natural = make([]int, d), make([]int, d)
	size := 1
	for j := d - 1; j >= 0; j-- {
		t.shape[j] = contractedExtent(shape[j], bs[j], keep&(1<<j) != 0)
		t.natural[j] = size
		size *= t.shape[j]
	}
	return t
}

// slab is how many entries of the target one block-row of the cube covers.
func (t *target[T]) slab(b0 int) int {
	if t.keep&1 == 0 {
		return t.natural[0]
	}
	return b0 * t.natural[0]
}

// rows returns the target's dimension-0 rows that the cube's block-row k0
// covers, ending at the cube row hi0.
func (t *target[T]) rows(k0, b0, hi0 int) (first, n int) {
	if t.keep&1 == 0 {
		return k0, 1
	}
	return k0 * b0, hi0 - k0*b0
}

// store moves the natural-order slab of the target's rows [first, first+n)
// of dimension 0 into its storage, leaving id behind for the next block-row.
// It writes each entry once, in runs along the innermost dimension in
// storage order that the slab holds more than one entry of (a contracted
// dimension 0 holds one per block-row), the other dimensions in storage
// order around them. at is scratch of one int per dimension.
func (t *target[T]) store(slab []T, at []int, first, n int, id T) {
	d := len(t.shape)
	extent := func(j int) int {
		if j == 0 {
			return n
		}
		return t.shape[j]
	}
	clear(at)
	last := d - 1
	for last > 0 && extent(t.order[last]) == 1 {
		last--
	}
	inner := t.order[last]
	runLen, dstep, sstep := extent(inner), t.strides[inner], t.natural[inner]
	for {
		doff, soff := first*t.strides[0], 0
		for j, x := range at {
			doff += x * t.strides[j]
			soff += x * t.natural[j]
		}
		for x := range runLen {
			s := soff + x*sstep
			t.data[doff+x*dstep], slab[s] = slab[s], id
		}
		k := last - 1
		for ; k >= 0; k-- {
			j := t.order[k]
			if at[j]++; at[j] < extent(j) {
				break
			}
			at[j] = 0
		}
		if k < 0 {
			return
		}
	}
}

// contract folds the cube into every target in one walk in storage order,
// innermost line by innermost line. A target that contracts the innermost
// axis takes a line's block sums, one that keeps it takes the line entry by
// entry. Workers own disjoint runs of whole block-rows of dimension 0 — cube
// rows [klo·b0, khi·b0) — as ndarray.ContractSlabs does, so whether a target
// keeps or contracts dimension 0 no two workers write one of its entries, and
// each worker still walks its slab in storage order.
//
// The canonical int64 SUM gets a specialized kernel (no generic-dictionary
// Combine calls, each block summed once for all targets); every other group
// folds cell by cell into each target, which keeps ⊕ applied in the order a
// walk for that target alone would apply it. Both walk a line in block-sized
// segments, so there is no per-cell division. A b = 1 innermost axis has
// nothing to contract, so there every target takes whole lines.
func contract[T any, G algebra.Group[T]](a *ndarray.Array[T], bs []int, targets []target[T]) {
	var g G
	shape, strides := a.Shape(), a.Strides()
	last := len(shape) - 1
	b := bs[last]
	// The nb targets that contract the innermost axis go first.
	lastBit := uint(1) << last
	sort.SliceStable(targets, func(i, j int) bool { return targets[i].keep&lastBit < targets[j].keep&lastBit })
	nb := 0
	for b > 1 && nb < len(targets) && targets[nb].keep&lastBit == 0 {
		nb++
	}
	adata := a.Data()
	_, intSum := any(g).(algebra.IntSum)
	data64, _ := any(adata).([]int64)
	if !intSum {
		data64 = nil
	}
	m0 := (shape[0] + bs[0] - 1) / bs[0]
	parallel.For(m0, len(adata), func(klo, khi, _ int) {
		// outs are where a line goes in each target: the target's entries, or
		// this worker's slab of it; bases are a line's first entry there.
		outs := make([][]T, len(targets))
		id := g.Identity()
		for i, t := range targets {
			outs[i] = t.data
			if t.shape != nil {
				outs[i] = make([]T, t.slab(bs[0]))
				if !intSum { // make already holds IntSum's identity
					for x := range outs[i] {
						outs[i][x] = id
					}
				}
			}
		}
		kernel := foldLines[T, G](adata, outs, nb, b)
		if data64 != nil {
			kernel = foldLines64(data64, any(outs).([][]int64), nb, b)
		}
		bases := make([]int, len(targets))
		if last == 0 { // the one line is the cube: a worker's blocks are a run of it
			kernel(0, klo*bs[0], min(khi*bs[0], shape[0]), bases)
			return
		}
		coords := make([]int, last) // a line's start, over dimensions 0..d−2
		at := make([]int, last+1)
		for k0 := klo; k0 < khi; k0++ {
			hi0 := min((k0+1)*bs[0], shape[0])
			clear(coords)
			coords[0] = k0 * bs[0]
			for {
				off := 0
				for j, x := range coords {
					off += x * strides[j]
				}
				for i, t := range targets {
					if t.shape != nil {
						first, _ := t.rows(k0, bs[0], hi0)
						bases[i] = contractedOffset(coords, bs, t.natural, t.keep) - first*t.natural[0]
					} else {
						bases[i] = contractedOffset(coords, bs, t.strides, t.keep)
					}
				}
				kernel(off, 0, shape[last], bases)
				j := last - 1
				for ; j >= 0; j-- {
					coords[j]++
					lim := shape[j]
					if j == 0 {
						lim = hi0
					}
					if coords[j] < lim {
						break
					}
					coords[j] = 0
				}
				if j < 0 {
					break
				}
			}
			for i, t := range targets {
				if t.shape != nil {
					first, n := t.rows(k0, bs[0], hi0)
					t.store(outs[i], at, first, n, id)
				}
			}
		}
	})
}

// foldLines is the kernel of every group but the int64 SUM: it folds the
// run [lo, hi) of the cube line starting at offset off into outs, cell by
// cell into each target.
func foldLines[T any, G algebra.Group[T]](adata []T, outs [][]T, nb, b int) func(off, lo, hi int, bases []int) {
	var g G
	return func(off, lo, hi int, bases []int) {
		for i, out := range outs[:nb] {
			for x := lo; x < hi; {
				q := x / b
				end := min((q+1)*b, hi)
				acc := out[bases[i]+q]
				for ; x < end; x++ {
					acc = g.Combine(acc, adata[off+x])
				}
				out[bases[i]+q] = acc
			}
		}
		for i, out := range outs[nb:] {
			row := out[bases[nb+i]:]
			for x := lo; x < hi; x++ {
				row[x] = g.Combine(row[x], adata[off+x])
			}
		}
	}
}

// foldLines64 is foldLines for the int64 SUM: each block is summed once for
// all targets.
func foldLines64(data64 []int64, outs64 [][]int64, nb, b int) func(off, lo, hi int, bases []int) {
	return func(off, lo, hi int, bases []int) {
		if nb == 0 {
			line := data64[off+lo : off+hi]
			for i, out := range outs64 {
				row := out[bases[i]+lo:][:len(line)]
				for k, v := range line {
					row[k] += v
				}
			}
			return
		}
		for x := lo; x < hi; {
			q := x / b
			end := min((q+1)*b, hi)
			seg := data64[off+x : off+end]
			// Four independent accumulators: one would serialize
			// the adds behind each other's latency.
			var acc, s1, s2, s3 int64
			rest := seg
			for ; len(rest) >= 4; rest = rest[4:] {
				acc, s1, s2, s3 = acc+rest[0], s1+rest[1], s2+rest[2], s3+rest[3]
			}
			for _, v := range rest {
				acc += v
			}
			acc += s1 + s2 + s3
			for i, out := range outs64[:nb] {
				out[bases[i]+q] += acc
			}
			// Now, while the segment is in L1; a whole line need not be.
			for i, out := range outs64[nb:] {
				row := out[bases[nb+i]+x:][:len(seg)]
				for k, v := range seg {
					row[k] += v
				}
			}
			x = end
		}
	}
}
