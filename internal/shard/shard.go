// Package shard partitions one logical data cube across N engine shards
// and routes range queries and point-update batches to them — the
// scatter–gather layer of the serving tier.
//
// The partition is a slab decomposition: one dimension (a server splits its
// widest, ndarray.WidestDim) is cut into N contiguous index ranges, and
// shard i owns the sub-cube whose split-dimension coordinates fall in slab i,
// at full extent in every other dimension.
// Slabs work because every identity the engines rely on is local to an
// axis-aligned box: a range sum over the logical cube is exactly the sum
// of the per-shard range sums (SUM additivity, §3), a range max/min is the
// fold of the per-shard extremes, and a §5 point-update batch scatters to
// the single shard owning each cell. Sharded answers are therefore
// bit-identical to unsharded ones — the property the conformance registry
// checks differentially.
package shard

import (
	"fmt"

	"rangecube/internal/ndarray"
)

// Map describes the slab partition of one cube shape: which dimension is
// split and which contiguous index range each shard owns in it. Slabs are
// in ascending order, non-empty, and exactly tile [0, Shape[Dim]-1].
type Map struct {
	shape []int
	dim   int
	slabs []ndarray.Range
}

// NewMap cuts shape's dimension dim into n slabs of near-equal width
// (deterministically: slab i is [i·e/n, (i+1)·e/n), the same arithmetic the
// parallel pool uses for chunk boundaries). n is clamped to the dimension's
// extent — a 3-wide dimension cannot feed 4 non-empty slabs.
func NewMap(shape []int, dim, n int) (Map, error) {
	if len(shape) == 0 {
		return Map{}, fmt.Errorf("shard: empty shape")
	}
	if dim < 0 || dim >= len(shape) {
		return Map{}, fmt.Errorf("shard: split dimension %d out of range for %d-d cube", dim, len(shape))
	}
	for j, e := range shape {
		if e <= 0 {
			return Map{}, fmt.Errorf("shard: dimension %d has extent %d", j, e)
		}
	}
	if n < 1 {
		return Map{}, fmt.Errorf("shard: %d shards", n)
	}
	e := shape[dim]
	if n > e {
		n = e
	}
	m := Map{shape: append([]int(nil), shape...), dim: dim, slabs: make([]ndarray.Range, n)}
	for i := 0; i < n; i++ {
		m.slabs[i] = ndarray.Range{Lo: i * e / n, Hi: (i+1)*e/n - 1}
	}
	return m, nil
}

// Shards returns the number of shards.
func (m Map) Shards() int { return len(m.slabs) }

// Dim returns the split dimension.
func (m Map) Dim() int { return m.dim }

// Shape returns the logical cube shape (shared; do not mutate).
func (m Map) Shape() []int { return m.shape }

// Slab returns shard i's index range in the split dimension.
func (m Map) Slab(i int) ndarray.Range { return m.slabs[i] }

// LocalShape returns the shape of shard i's sub-cube.
func (m Map) LocalShape(i int) []int {
	ls := append([]int(nil), m.shape...)
	ls[m.dim] = m.slabs[i].Len()
	return ls
}

// Owner returns the shard owning split-dimension coordinate x. Coordinates
// are assumed in range (the server validates updates against the cube shape
// before they reach the router).
func (m Map) Owner(x int) int {
	// Invert the near-equal-width arithmetic, then correct for explicit
	// (possibly uneven) slab boundaries with a local walk: boundaries are
	// monotone, so the guess is off by at most the unevenness.
	n := len(m.slabs)
	i := x * n / m.shape[m.dim]
	if i >= n {
		i = n - 1
	}
	for i > 0 && x < m.slabs[i].Lo {
		i--
	}
	for i < n-1 && x > m.slabs[i].Hi {
		i++
	}
	return i
}

// cut splits a logical-cube region into per-shard pieces, visited in shard
// order, each in its shard's local coordinates (split dimension translated
// by −Slab(i).Lo); the router's scatter puts them straight into its
// per-shard groups. The pieces exactly partition the region: translated back
// to global coordinates they are pairwise disjoint and their union is the
// region, so per-shard volumes sum to the region's volume — the identity that
// makes sharded sums, counts and averages lossless. An empty region yields no
// piece.
func (m Map) cut(r ndarray.Region, visit func(shard int, local ndarray.Region)) {
	if len(r) != len(m.shape) || r.Empty() {
		return
	}
	want := r[m.dim]
	for i, slab := range m.slabs {
		piece := want.Intersect(slab)
		if piece.Empty() {
			continue
		}
		if slab.Lo == 0 && piece == want {
			visit(i, r) // the whole region on a slab from 0: its own local form
			continue
		}
		local := r.Clone()
		local[m.dim] = ndarray.Range{Lo: piece.Lo - slab.Lo, Hi: piece.Hi - slab.Lo}
		visit(i, local)
	}
}

// Global translates shard i's local coordinates back to the logical cube
// (the inverse of cut's translation), writing into dst when it has
// capacity. Extreme queries use it to report the argmax cell's true
// position.
func (m Map) Global(i int, local []int, dst []int) []int {
	if cap(dst) < len(local) {
		dst = make([]int, len(local))
	}
	dst = dst[:len(local)]
	copy(dst, local)
	dst[m.dim] += m.slabs[i].Lo
	return dst
}
