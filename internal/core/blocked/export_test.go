package blocked

import "rangecube/internal/ndarray"

// What the external tests (package blocked_test, which may import batchsum)
// need of the internals.

// SeedFlag is the package's one -seed flag.
var SeedFlag = seedFlag

// Edges returns the edge arrays keyed by the set of dimensions each keeps at
// cell resolution, each copied into an array in natural dimension order.
func (bl *Array[T, G]) Edges() map[uint]*ndarray.Array[T] {
	out := map[uint]*ndarray.Array[T]{}
	for keep, e := range bl.edges {
		if e == nil {
			continue
		}
		shape := make([]int, bl.a.Dims())
		for j, n := range bl.a.Shape() {
			shape[j] = contractedExtent(n, bl.bs[j], uint(keep)&(1<<j) != 0)
		}
		natural := ndarray.New[T](shape...)
		natural.Bounds().ForEach(func(k []int) {
			off := 0
			for j, x := range k {
				off += x * e.strides[j]
			}
			natural.Set(e.data[off], k...)
		})
		out[uint(keep)] = natural
	}
	return out
}

// EdgeOrders returns, keyed as Edges, each edge array's dimensions from the
// outermost stored to the innermost, whose stride is 1.
func (bl *Array[T, G]) EdgeOrders() map[uint][]int {
	out := map[uint][]int{}
	for keep, e := range bl.edges {
		if e != nil {
			out[uint(keep)] = e.order
		}
	}
	return out
}
