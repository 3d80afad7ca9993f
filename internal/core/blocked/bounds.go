package blocked

import (
	"cmp"
	"context"

	"rangecube/internal/algebra"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
)

// Bounds implements the paper's §11 approximate-answer offshoot: an upper
// and a lower bound on a range-sum derived purely from the blocked prefix
// sums, in at most 2^d − 1 steps per decomposed region and no cube
// accesses, to be shown to the user while the exact sum is computed.
//
// The internal (block-aligned) part of the query is exact; each boundary
// region R contributes 0 to the lower bound and its superblock's sum to
// the upper bound, since 0 ≤ Sum(R) ≤ Sum(superblock(R)) for non-negative
// measures. The bounds therefore require every cell value to be
// non-negative (the usual case for OLAP measures like revenue or counts);
// with negative values only the trivial ordering lo ≤ hi is guaranteed.
func Bounds[T cmp.Ordered, G algebra.Group[T]](bl *Array[T, G], r ndarray.Region, c *metrics.Counter) (lo, hi T) {
	lo, hi = bl.g.Identity(), bl.g.Identity()
	var splits [4]dimSplit
	var ranges [3 * 4]ndarray.Range
	w := bl.decompose(r, splits[:])
	p := subRegionOver(ranges[:], len(r))
	for w.next(&p) {
		s := bl.packedSum(p.block, c) // the superblock; the region itself when internal
		if p.keep == 0 {
			lo = bl.g.Combine(lo, s)
		}
		hi = bl.g.Combine(hi, s)
		c.AddSteps(1)
	}
	return lo, hi
}

// SumBoundsContext is SumContext and Bounds over one decomposition of r: the
// exact sum v with its cost attributed to c, and the §11 bounds of the same
// sub-regions, bit-identical to Bounds', whose packed reads are kept out of
// c. It checkpoints ctx like SumContext.
func SumBoundsContext[T cmp.Ordered, G algebra.Group[T]](ctx context.Context, bl *Array[T, G], r ndarray.Region, c *metrics.Counter) (v, lo, hi T, err error) {
	return bl.sum(ctx, r, c, true)
}
