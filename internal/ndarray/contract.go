package ndarray

import (
	"fmt"

	"rangecube/internal/parallel"
)

// ContractSlabs drives a block-contraction walk of the array across the
// worker pool. It is the shared substrate of the blocked prefix-sum
// contraction (§4.3 phase 1) and the sumtree/maxtree level builds, which
// all fold every bs-sized block of cells into one slot of a contracted
// output array with per-dimension strides cstrides.
//
// The kernel is called once per innermost-axis run, with (off, lo, hi,
// cbase): the run's cells are Data()[off+x] for x in [lo, hi) at innermost
// coordinate x, lo is a multiple of bs[d-1], and the contracted slot of
// cell x is cbase + x/bs[d-1]
// (cbase already folds in the contracted contribution of the outer
// dimensions; for d == 1 the runs are the blocks themselves and cbase is 0).
//
// Scheduling: workers own contiguous slabs of the contracted leading
// dimension, i.e. input rows [klo·bs[0], khi·bs[0]), so two workers never
// fold into the same contracted slot and each worker still walks its slab
// in storage order (the paper's page-touch argument per worker). Inputs
// below the parallel grain run inline on the calling goroutine.
func ContractSlabs[T any](a *Array[T], bs, cstrides []int, kernel func(off, lo, hi, cbase int)) {
	shape, strides := a.shape, a.strides
	d := len(shape)
	if len(bs) != d || len(cstrides) != d {
		panic(fmt.Sprintf("ndarray: ContractSlabs got %d block sizes and %d contracted strides for %d dimensions", len(bs), len(cstrides), d))
	}
	m0 := (shape[0] + bs[0] - 1) / bs[0]
	if d == 1 {
		b, n := bs[0], shape[0]
		parallel.For(m0, n, func(klo, khi, _ int) {
			for k := klo; k < khi; k++ {
				kernel(0, k*b, min((k+1)*b, n), 0)
			}
		})
		return
	}
	nLast := shape[d-1]
	parallel.For(m0, len(a.data), func(klo, khi, _ int) {
		lo0, hi0 := klo*bs[0], min(khi*bs[0], shape[0])
		coords := make([]int, d-1) // line-start coords over dims 0..d-2
		coords[0] = lo0
		for {
			off, cbase := 0, 0
			for j := 0; j < d-1; j++ {
				off += coords[j] * strides[j]
				cbase += (coords[j] / bs[j]) * cstrides[j]
			}
			kernel(off, 0, nLast, cbase)
			j := d - 2
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
