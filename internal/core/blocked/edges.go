package blocked

import (
	"fmt"
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
			size += e.Size()
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
		edata := e.Data()
		eoff := contractedOffset(coords, bl.bs, e.Strides(), uint(keep))
		edata[eoff] = bl.g.Combine(edata[eoff], delta)
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
	contracted := func(keep uint) *ndarray.Array[T] {
		shape := make([]int, d)
		for j, n := range a.Shape() {
			shape[j] = n
			if keep&(1<<j) == 0 {
				shape[j] = (n + bs[j] - 1) / bs[j]
			}
		}
		arr := ndarray.New[T](shape...)
		if _, zero := any(g).(algebra.IntSum); !zero { // New already holds IntSum's identity
			data, id := arr.Data(), g.Identity()
			for i := range data {
				data[i] = id
			}
		}
		return arr
	}
	bl := &Array[T, G]{a: a, bs: append([]int(nil), bs...)}
	full := contracted(0) // what §4.3 contracts A into, and packed once prefix-summed
	targets := []target[T]{{arr: full}}
	if withEdges && blockedDims&(blockedDims-1) != 0 { // two blocked dimensions or more
		bl.edges = make([]*ndarray.Array[T], 1<<d)
		for keep := (blockedDims - 1) & blockedDims; keep != 0; keep = (keep - 1) & blockedDims {
			bl.edges[keep] = contracted(keep)
			targets = append(targets, target[T]{keep: keep, arr: bl.edges[keep]})
		}
	}
	// Phase 1: contract, into every target at once.
	contract[T, G](a, bs, targets)
	// Phase 2: prefix-sum the fully contracted array in place.
	bl.packed = prefixsum.Wrap[T, G](full)
	return bl
}

// target is one output of the contraction walk: the cube contracted by bs in
// every dimension outside keep.
type target[T any] struct {
	keep uint
	arr  *ndarray.Array[T]
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
	// The nb targets that contract the innermost axis go first; outs are the
	// targets' entries, and a line's bases its first entry's offset in each.
	lastBit := uint(1) << last
	sort.SliceStable(targets, func(i, j int) bool { return targets[i].keep&lastBit < targets[j].keep&lastBit })
	nb := 0
	for b > 1 && nb < len(targets) && targets[nb].keep&lastBit == 0 {
		nb++
	}
	outs := make([][]T, len(targets))
	for i, t := range targets {
		outs[i] = t.arr.Data()
	}
	adata := a.Data()
	// kernel folds the run [lo, hi) of the line starting at offset off.
	kernel := func(off, lo, hi int, bases []int) {
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
	if data64, ok := any(adata).([]int64); ok {
		if _, ok := any(g).(algebra.IntSum); ok {
			outs64 := any(outs).([][]int64)
			kernel = func(off, lo, hi int, bases []int) {
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
	}

	m0 := (shape[0] + bs[0] - 1) / bs[0]
	parallel.For(m0, len(adata), func(klo, khi, _ int) {
		lo0, hi0 := klo*bs[0], min(khi*bs[0], shape[0])
		bases := make([]int, len(targets))
		if last == 0 { // the one line is the cube: a worker's blocks are a run of it
			kernel(0, lo0, hi0, bases)
			return
		}
		coords := make([]int, last) // a line's start, over dimensions 0..d−2
		coords[0] = lo0
		for {
			off := 0
			for j, x := range coords {
				off += x * strides[j]
			}
			for i, t := range targets {
				bases[i] = contractedOffset(coords, bs, t.arr.Strides(), t.keep)
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
				return
			}
		}
	})
}
