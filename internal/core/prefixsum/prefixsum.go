// Package prefixsum implements the paper's basic range-sum algorithm (§3):
// a d-dimensional prefix-sum array P of the same size as the data cube A,
// built in dN steps, from which any range-sum is the inclusion–exclusion
// combination of at most 2^d entries of P (Theorem 1) — constant time in
// the query volume.
//
// The construction works for any invertible aggregation operator
// (algebra.Group): SUM, COUNT, AVERAGE via (sum,count) pairs, XOR, and
// multiplication over a zero-free domain.
package prefixsum

import (
	"fmt"

	"rangecube/internal/algebra"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
)

// Array is the precomputed prefix-sum array P, where
// P[x1,...,xd] = Sum(0:x1, ..., 0:xd) under the group G (Equation 1).
// Once built it is independent of A; per §3.4 the original cube may be
// discarded, with cells reconstructed by volume-1 range queries.
type Array[T any, G algebra.Group[T]] struct {
	p *ndarray.Array[T]
	g G
}

// IntArray is the prefix-sum array for the paper's canonical int64 SUM.
type IntArray = Array[int64, algebra.IntSum]

// BuildInt builds an IntArray; it is the common entry point for SUM cubes.
func BuildInt(a *ndarray.Array[int64]) *IntArray {
	return Build[int64, algebra.IntSum](a)
}

// Build computes P from A with the §3.3 algorithm: d phases, each a
// one-dimensional prefix pass along one dimension, visiting P in storage
// (row-major) order so each page would be touched at most twice per phase.
// A is not modified.
func Build[T any, G algebra.Group[T]](a *ndarray.Array[T]) *Array[T, G] {
	ps := &Array[T, G]{p: a.Clone()}
	ps.recompute()
	return ps
}

// Wrap prefix-sums raw in place and wraps it; unlike Build it does not copy.
// The blocked layer (§4.3) uses it to turn a block-contracted array into a
// blocked prefix-sum array without an extra buffer.
func Wrap[T any, G algebra.Group[T]](raw *ndarray.Array[T]) *Array[T, G] {
	ps := &Array[T, G]{p: raw}
	ps.recompute()
	return ps
}

// FromPrecomputed wraps an array whose entries are already prefix sums.
func FromPrecomputed[T any, G algebra.Group[T]](p *ndarray.Array[T]) *Array[T, G] {
	return &Array[T, G]{p: p}
}

// recompute re-runs the d prefix passes in place; p must currently hold raw
// cube values.
//
// Each pass is line-oriented: around axis j the row-major array factors as
// [outer][nj][inner] with inner = strides[j], so a pass is, per panel,
// data[i][t] ⊕= data[i-1][t] — a tight loop over contiguous memory in
// storage order, preserving the §3.3 touch-each-page-at-most-twice bound.
// The nj·inner 1-D lines of a panel are independent of every other panel's,
// and the inner columns of one panel are independent of each other, so the
// pass fans out across workers over whichever of the two is larger; small
// cubes fall below parallel.Grain and run sequentially. The canonical
// int64/IntSum instantiation dispatches to a specialized kernel with no
// generic-dictionary Combine calls.
func (ps *Array[T, G]) recompute() {
	p := ps.p
	n := p.Size()
	shape := p.Shape()
	strides := p.Strides()
	data64, fast := fastInt64[T, G](p.Data(), ps.g)
	jEnd := p.Dims()
	if d := p.Dims(); fast && d >= 2 {
		// Fuse the last two passes into one storage-order sweep: the panel
		// around axis d-2 is [m][w] with w = shape[d-1], and
		// out[i] = rowprefix(in[i]) + out[i-1] element-wise — one read and
		// one write of each page instead of two of each, with out[i-1]
		// still warm from the previous row. Addition on int64 is exact, so
		// the result is bit-identical to the two separate passes. The fused
		// panel only parallelizes across outer panels, so skip the fusion
		// when that would idle workers the split passes could use.
		m, w := shape[d-2], shape[d-1]
		outer := n / (m * w)
		if wk := parallel.Workers(); wk == 1 || outer >= wk {
			panel := m * w
			parallel.For(outer, n, func(lo, hi, _ int) {
				for o := lo; o < hi; o++ {
					fusedInt64(data64[o*panel:(o+1)*panel], m, w)
				}
			})
			jEnd = d - 2
		}
	}
	for j := 0; j < jEnd; j++ {
		nj := shape[j]
		if nj == 1 {
			continue
		}
		inner := strides[j]
		outer := n / (nj * inner)
		panel := nj * inner
		switch {
		case fast && outer >= inner:
			// Fan panels out across workers.
			parallel.For(outer, n, func(lo, hi, _ int) {
				for o := lo; o < hi; o++ {
					passInt64(data64[o*panel:(o+1)*panel], nj, inner, 0, inner)
				}
			})
		case fast:
			// Few panels, wide inner slabs: fan inner columns out instead.
			parallel.For(inner, n, func(tlo, thi, _ int) {
				for o := 0; o < outer; o++ {
					passInt64(data64[o*panel:(o+1)*panel], nj, inner, tlo, thi)
				}
			})
		case outer >= inner:
			data := p.Data()
			parallel.For(outer, n, func(lo, hi, _ int) {
				for o := lo; o < hi; o++ {
					passGeneric[T](data[o*panel:(o+1)*panel], nj, inner, 0, inner, ps.g)
				}
			})
		default:
			data := p.Data()
			parallel.For(inner, n, func(tlo, thi, _ int) {
				for o := 0; o < outer; o++ {
					passGeneric[T](data[o*panel:(o+1)*panel], nj, inner, tlo, thi, ps.g)
				}
			})
		}
	}
}

// fastInt64 reports whether the instantiation is the canonical int64 SUM
// and, if so, returns the data reinterpreted as []int64. The two type
// assertions compile to constant checks per instantiation, so every other
// group pays nothing.
func fastInt64[T any, G algebra.Group[T]](data []T, g G) ([]int64, bool) {
	if _, ok := any(g).(algebra.IntSum); !ok {
		return nil, false
	}
	d64, ok := any(data).([]int64)
	return d64, ok
}

// passInt64 runs one prefix pass over inner columns [tlo, thi) of a single
// contiguous panel laid out as [nj][inner]int64. The inner == 1 case is the
// innermost-axis pass: one contiguous stride-1 line per panel.
func passInt64(panel []int64, nj, inner, tlo, thi int) {
	if inner == 1 {
		for i := 1; i < nj; i++ {
			panel[i] += panel[i-1]
		}
		return
	}
	for i := 1; i < nj; i++ {
		row := panel[i*inner : i*inner+inner]
		prev := panel[(i-1)*inner : i*inner]
		for t := tlo; t < thi; t++ {
			row[t] += prev[t]
		}
	}
}

// fusedInt64 runs the last two prefix passes of one [m][w] panel as a
// single sweep: each row is prefixed along the innermost axis while the
// already-complete previous row is added element-wise.
func fusedInt64(panel []int64, m, w int) {
	row := panel[:w]
	var acc int64
	for t := range row {
		acc += row[t]
		row[t] = acc
	}
	for i := 1; i < m; i++ {
		row = panel[i*w : i*w+w]
		prev := panel[(i-1)*w : i*w]
		acc = 0
		for t := 0; t < w; t++ {
			acc += row[t]
			row[t] = acc + prev[t]
		}
	}
}

// passGeneric is passInt64 for an arbitrary group.
func passGeneric[T any, G algebra.Group[T]](panel []T, nj, inner, tlo, thi int, g G) {
	if inner == 1 {
		for i := 1; i < nj; i++ {
			panel[i] = g.Combine(panel[i], panel[i-1])
		}
		return
	}
	for i := 1; i < nj; i++ {
		row := panel[i*inner : i*inner+inner]
		prev := panel[(i-1)*inner : i*inner]
		for t := tlo; t < thi; t++ {
			row[t] = g.Combine(row[t], prev[t])
		}
	}
}

// P exposes the underlying prefix-sum array (read-only by convention);
// tests and the blocked/batch layers use it.
func (ps *Array[T, G]) P() *ndarray.Array[T] { return ps.p }

// Dims returns the cube dimensionality d.
func (ps *Array[T, G]) Dims() int { return ps.p.Dims() }

// Shape returns the cube extents.
func (ps *Array[T, G]) Shape() []int { return ps.p.Shape() }

// Size returns N, the number of cells (and of precomputed prefix sums).
func (ps *Array[T, G]) Size() int { return ps.p.Size() }

// Sum answers Sum(ℓ1:h1, ..., ℓd:hd) by Theorem 1: the signed combination
// of the up-to-2^d entries P[x1,...,xd] with each xj ∈ {ℓj−1, hj}, where a
// term with any xj = −1 is zero and is skipped. The cost is at most 2^d
// auxiliary accesses and 2^d − 1 combining steps, independent of the query
// volume. The region must lie within the cube bounds; an empty region
// yields the group identity.
func (ps *Array[T, G]) Sum(r ndarray.Region, c *metrics.Counter) T {
	d := ps.p.Dims()
	if len(r) != d {
		panic(fmt.Sprintf("prefixsum: query of dimension %d against cube of dimension %d", len(r), d))
	}
	if r.Empty() {
		return ps.g.Identity()
	}
	shape := ps.p.Shape()
	for j, rng := range r {
		if rng.Lo < 0 || rng.Hi >= shape[j] {
			panic(fmt.Sprintf("prefixsum: query %v out of bounds for shape %v", r.String(), shape)) // String keeps r off the heap
		}
	}
	strides := ps.p.Strides()
	data := ps.p.Data()
	total := ps.g.Identity()
	// Each corner is a bitmask: bit j set means xj = hj (sign +1),
	// clear means xj = ℓj−1 (sign −1).
	for mask := 0; mask < 1<<d; mask++ {
		off := 0
		neg := false
		skip := false
		for j := 0; j < d; j++ {
			if mask&(1<<j) != 0 {
				off += r[j].Hi * strides[j]
			} else {
				if r[j].Lo == 0 {
					skip = true // P[..., -1, ...] = 0 by convention
					break
				}
				off += (r[j].Lo - 1) * strides[j]
				neg = !neg
			}
		}
		if skip {
			continue
		}
		c.AddAux(1)
		if mask != 1<<d-1 { // the all-hj corner is the first term, no combine
			c.AddSteps(1)
		}
		if neg {
			total = ps.g.Inverse(total, data[off])
		} else {
			total = ps.g.Combine(total, data[off])
		}
	}
	return total
}

// Cell reconstructs a single cube cell as the volume-1 range-sum
// Sum(x1:x1, ..., xd:xd) (§3.4), allowing A to be discarded after Build.
func (ps *Array[T, G]) Cell(coords []int, c *metrics.Counter) T {
	r := make(ndarray.Region, len(coords))
	for i, x := range coords {
		r[i] = ndarray.Range{Lo: x, Hi: x}
	}
	return ps.Sum(r, c)
}

// ApplyPoint applies a single value-to-add delta at coords: every
// P[y1,...,yd] with yj ≥ xj for all j absorbs delta. This is the O(N)
// worst-case single-update path that motivates the batch-update algorithm
// of §5 (package batchsum).
func (ps *Array[T, G]) ApplyPoint(coords []int, delta T, c *metrics.Counter) {
	d := ps.p.Dims()
	if len(coords) != d {
		panic("prefixsum: update point dimensionality mismatch")
	}
	r := make(ndarray.Region, d)
	for j, x := range coords {
		if x < 0 || x >= ps.p.Shape()[j] {
			panic(fmt.Sprintf("prefixsum: update point %v out of bounds for shape %v", coords, ps.p.Shape()))
		}
		r[j] = ndarray.Range{Lo: x, Hi: ps.p.Shape()[j] - 1}
	}
	ps.AddRegion(r, delta, c)
}

// AddRegion combines delta into every P entry of region r. It is the
// primitive the §5 batch-update algorithm uses to apply one combined
// value-to-add to one update-class region.
//
// The region is decomposed into contiguous innermost-axis lines; each line
// is written by a tight loop and the worker pool shards the lines when the
// region is large. A region under parallel.Grain entries is written inline
// and allocates nothing. Counters are accumulated per region, not per cell —
// the totals (Aux and Steps both gain one per entry written) are identical to
// the per-cell accounting this replaced.
func (ps *Array[T, G]) AddRegion(r ndarray.Region, delta T, c *metrics.Counter) {
	ls := ndarray.LinesOf(ps.p, r, ps.p.Dims()-1)
	lines, lineLen := ls.Count(), ls.Len()
	if lines == 0 {
		return
	}
	vol := lines * lineLen
	if vol < parallel.Grain { // what parallel.For would run inline, without its closure
		ps.addLines(ls, 0, lines, delta)
	} else {
		parallel.For(lines, vol, func(lo, hi, _ int) { ps.addLines(ls, lo, hi, delta) })
	}
	c.AddAux(int64(vol))
	c.AddSteps(int64(vol))
}

// addLines combines delta into lines lo..hi−1 of ls.
func (ps *Array[T, G]) addLines(ls ndarray.Lines, lo, hi int, delta T) {
	if data64, fast := fastInt64[T, G](ps.p.Data(), ps.g); fast {
		d64 := any(delta).(int64)
		ls.ForEach(lo, hi, func(ln ndarray.Line) {
			row := data64[ln.Off : ln.Off+ln.Len]
			for i := range row {
				row[i] += d64
			}
		})
		return
	}
	data := ps.p.Data()
	ls.ForEach(lo, hi, func(ln ndarray.Line) {
		row := data[ln.Off : ln.Off+ln.Len]
		for i := range row {
			row[i] = ps.g.Combine(row[i], delta)
		}
	})
}

// AddPoints combines point value-to-adds into P: the cube cell at offset
// offs[i] gains deltas[i], so every entry absorbs the deltas of the points it
// dominates — what batchsum.Apply does with the same points, reached without
// its Theorem 2 regions (up to k(k+1)/2 of them in 2-d). offs must be strictly
// increasing. It is one storage-order pass over the entries at or after
// offs[0], each written once whatever the number of points. A slab one
// dimension-0 row wide holds the points of the rows passed so far, prefix-summed
// over dimensions 1..d−2 (at d = 2, none: the points themselves), and rebuilt
// only after a row that holds points; each row adds it prefix-summed along the
// innermost axis by a running total. Workers take bands of dimension-0 rows,
// each seeding its slab from the points before its band. Aux and Steps gain
// one per entry written.
func (ps *Array[T, G]) AddPoints(offs []int, deltas []T, c *metrics.Counter) {
	data := ps.p.Data()
	if len(offs) != len(deltas) {
		panic(fmt.Sprintf("prefixsum: %d point offsets for %d deltas", len(offs), len(deltas)))
	}
	for i, off := range offs {
		if off < 0 || off >= len(data) || (i > 0 && off <= offs[i-1]) {
			panic(fmt.Sprintf("prefixsum: point offsets %v are not increasing offsets into %d entries", offs, len(data)))
		}
	}
	if len(offs) == 0 {
		return
	}
	shape, strides := ps.p.Shape(), ps.p.Strides()
	d := len(shape)
	w := strides[0] // entries per dimension-0 row
	n := 1          // entries per innermost line of a row
	if d > 1 {
		n = shape[d-1]
	}
	first := offs[0] / w
	g := ps.g
	data64, fast := fastInt64[T, G](data, g)
	parallel.For(shape[0]-first, len(data)-offs[0], func(lo, hi, _ int) {
		raw := make([]T, w)
		if !fast {
			for t := range raw {
				raw[t] = g.Identity()
			}
		}
		part := raw
		if d > 2 {
			part = make([]T, w)
		}
		part64, _ := any(part).([]int64)
		k := 0
		for y := first + lo; y < first+hi; y++ {
			dirty := false
			for ; k < len(offs) && offs[k] < (y+1)*w; k++ {
				raw[offs[k]%w] = g.Combine(raw[offs[k]%w], deltas[k])
				dirty = true
			}
			if dirty && d > 2 {
				copy(part, raw)
				prefixAxes(part, shape[1:d-1], strides[1:d-1], g)
			}
			// Entries of the first row before offs[0] dominate no point.
			for o := max(y*w, offs[0]) - y*w; o < w; o = (o/n + 1) * n {
				end := (o/n + 1) * n
				if fast {
					row, add := data64[y*w+o:y*w+end], part64[o:end]
					var acc int64
					for t, v := range add {
						acc += v
						row[t] += acc
					}
					continue
				}
				row, acc := data[y*w+o:y*w+end], g.Identity()
				for t, v := range part[o:end] {
					acc = g.Combine(acc, v)
					row[t] = g.Combine(row[t], acc)
				}
			}
		}
	})
	c.AddAux(int64(len(data) - offs[0]))
	c.AddSteps(int64(len(data) - offs[0]))
}

// prefixAxes prefix-sums slab, a row-major block of the given shape and
// strides, in place along each of its axes, on the calling goroutine.
func prefixAxes[T any, G algebra.Group[T]](slab []T, shape, strides []int, g G) {
	slab64, fast := fastInt64[T, G](slab, g)
	for j, nj := range shape {
		inner, panel := strides[j], nj*strides[j]
		for o := 0; o < len(slab); o += panel {
			if fast {
				passInt64(slab64[o:o+panel], nj, inner, 0, inner)
			} else {
				passGeneric[T](slab[o:o+panel], nj, inner, 0, inner, g)
			}
		}
	}
}
