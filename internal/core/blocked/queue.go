package blocked

import (
	"math"
	"slices"

	"rangecube/internal/algebra"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
)

// The queue lets one §5 batch of packed span many commits: ApplyQueued
// queues the packed half of each delta, one combined value-to-add per block,
// every packed read adds the queued deltas inside its region (packedSum), and
// Flush folds them in with one prefixsum.AddPoints pass. Folded at q of N
// packed entries' blocks, a read costs up to q compares and a queued block up
// to N/q fold writes: q = ⌈√N⌉ balances the two.

// ApplyQueued combines delta into the cube cell at coords and into the entry
// covering it in every edge array, and queues it for the packed block holding
// the cell instead of updating packed; it is the only write to the cells and
// the edge arrays. It accounts the cell to c as Cells and the edge entries as
// Aux. It returns how many distinct blocks are queued, and full once that
// reaches ⌈√(packed entries)⌉, when the caller should Flush.
func (bl *Array[T, G]) ApplyQueued(coords []int, delta T, c *metrics.Counter) (queued int, full bool) {
	c.AddAux(int64(bl.addToCell(coords, delta)))
	c.AddCells(1)
	strides := bl.packed.P().Strides()
	off := 0
	for j, x := range coords {
		off += x / bl.bs[j] * strides[j]
	}
	i, found := slices.BinarySearch(bl.qoff, off)
	if found {
		bl.qval[i] = bl.g.Combine(bl.qval[i], delta)
	} else {
		e := len(coords) - 1
		bl.qoff = slices.Insert(bl.qoff, i, off)
		bl.qval = slices.Insert(bl.qval, i, delta)
		bl.qat = append(bl.qat, coords[1:]...) // e more entries; block i's go at i·e
		copy(bl.qat[(i+1)*e:], bl.qat[i*e:])
		for j, x := range coords[1:] {
			bl.qat[i*e+j] = x / bl.bs[j+1]
		}
	}
	n := bl.packed.Size()
	limit := int(math.Sqrt(float64(n)))
	for limit*limit < n {
		limit++
	}
	return len(bl.qoff), len(bl.qoff) >= limit
}

// Flush folds every queued value-to-add into packed, accounting its writes to
// c, and empties the queue. It returns how many blocks it folded.
func (bl *Array[T, G]) Flush(c *metrics.Counter) int {
	n := len(bl.qoff)
	bl.packed.AddPoints(bl.qoff, bl.qval, c)
	bl.qoff, bl.qval, bl.qat = bl.qoff[:0], bl.qval[:0], bl.qat[:0]
	return n
}

// packedSum is packed.Sum of block region r plus every queued value-to-add
// inside r. The queue is the write side's bookkeeping, not one of the §8
// structures, so c sees only packed's accesses. It looks only at the run of
// blocks whose dimension-0 coordinate lies in r; for the int64 SUM it adds
// each under a mask rather than a mispredicted branch, and in 2-d with one
// compare pair per block, 4× faster than a branch and an inner loop.
func (bl *Array[T, G]) packedSum(r ndarray.Region, c *metrics.Counter) T {
	v := bl.packed.Sum(r, c)
	if len(bl.qoff) == 0 {
		return v
	}
	rows, e := bl.packed.P().Strides()[0], len(r)-1
	lo, _ := slices.BinarySearch(bl.qoff, r[0].Lo*rows)
	hi, _ := slices.BinarySearch(bl.qoff, (r[0].Hi+1)*rows)
	var vals64 []int64 // the canonical int64 SUM's deltas, summed under a mask
	if _, ok := any(bl.g).(algebra.IntSum); ok {
		vals64, _ = any(bl.qval).([]int64)
	}
	var sum int64
	if vals64 != nil && e == 1 { // 2-d: one coordinate per block to check
		at, lo1, hi1 := bl.qat[lo:hi], r[1].Lo, r[1].Hi
		for k, val := range vals64[lo:hi][:len(at)] {
			sum += val &^ int64(((at[k]-lo1)|(hi1-at[k]))>>63)
		}
		return bl.g.Combine(v, any(sum).(T))
	}
	for i := lo; i < hi; i++ {
		out := 0 // negative iff some coordinate lies outside r
		for j, x := range bl.qat[i*e : i*e+e] {
			out |= (x - r[j+1].Lo) | (r[j+1].Hi - x)
		}
		if vals64 != nil {
			sum += vals64[i] &^ int64(out>>63)
		} else if out >= 0 {
			v = bl.g.Combine(v, bl.qval[i])
		}
	}
	if vals64 != nil {
		v = bl.g.Combine(v, any(sum).(T))
	}
	return v
}
