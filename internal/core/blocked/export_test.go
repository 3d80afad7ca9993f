package blocked

import "rangecube/internal/ndarray"

// What the external tests (package blocked_test, which may import batchsum)
// need of the internals.

// SeedFlag is the package's one -seed flag.
var SeedFlag = seedFlag

// Edges returns the edge arrays keyed by the set of dimensions each keeps at
// cell resolution.
func (bl *Array[T, G]) Edges() map[uint]*ndarray.Array[T] {
	out := map[uint]*ndarray.Array[T]{}
	for keep, e := range bl.edges {
		if e != nil {
			out[uint(keep)] = e
		}
	}
	return out
}
