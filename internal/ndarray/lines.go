package ndarray

import "fmt"

// Line is a one-dimensional run of cells inside an array's backing slice:
// the offsets Off, Off+Stride, ..., Off+(Len-1)*Stride. Runs along the
// innermost axis of a row-major array have Stride == 1 and are contiguous,
// which is what makes line-oriented kernels cache- and vector-friendly.
type Line struct {
	Off, Len, Stride int
}

// Lines is the decomposition of a rectangular region into its 1-D runs
// along one axis: Count() runs, each of Len() cells, ordered row-major over
// the remaining dimensions. It is the substrate of the bulk kernels — a
// worker takes a contiguous chunk [lo, hi) of line indices and walks each
// run with a tight loop instead of a per-cell odometer and per-cell bounds
// checks.
//
// The value is immutable after construction and safe for concurrent use:
// ForEach keeps its cursor in locals, so disjoint chunks may be visited
// from different goroutines simultaneously. It refers to the region it was
// built from, which must not change while the value is in use; building and
// walking one allocates nothing for d ≤ 4.
type Lines struct {
	axis    int
	lineLen int // cells per run (r[axis].Len())
	stride  int // array stride of the axis
	count   int // number of runs
	base    int // offset of the region's low corner
	// The run index factors row-major over r's dimensions other than axis.
	r       Region
	strides []int // the array's strides
}

// LinesOf decomposes region r of the array into its 1-D runs along the
// given axis. It panics under the same conditions as ForEachOffset
// (dimension mismatch, region out of bounds); an empty region yields a
// decomposition with Count() == 0.
func LinesOf[T any](a *Array[T], r Region, axis int) Lines {
	if len(r) != len(a.shape) {
		panic("ndarray: region dimensionality does not match array")
	}
	if axis < 0 || axis >= len(a.shape) {
		panic(fmt.Sprintf("ndarray: line axis %d out of range for %d dimensions", axis, len(a.shape)))
	}
	if r.Empty() {
		return Lines{axis: axis}
	}
	for i, rng := range r {
		if rng.Lo < 0 || rng.Hi >= a.shape[i] {
			panic(fmt.Sprintf("ndarray: region %v out of bounds for shape %v", r, a.shape))
		}
	}
	ls := Lines{
		axis:    axis,
		lineLen: r[axis].Len(),
		stride:  a.strides[axis],
		count:   1,
		r:       r,
		strides: a.strides,
	}
	for j, rng := range r {
		ls.base += rng.Lo * a.strides[j]
		if j != axis {
			ls.count *= rng.Len()
		}
	}
	return ls
}

// Count returns the number of runs.
func (ls Lines) Count() int { return ls.count }

// Len returns the number of cells in each run.
func (ls Lines) Len() int { return ls.lineLen }

// ForEach visits runs lo..hi-1 in row-major order with O(1) amortized cost
// per run. Distinct goroutines may call ForEach concurrently on disjoint
// chunks of the same Lines value; this is how the worker pool shards a
// region.
func (ls Lines) ForEach(lo, hi int, visit func(ln Line)) {
	if lo < 0 || hi > ls.count || lo > hi {
		panic(fmt.Sprintf("ndarray: line chunk [%d,%d) out of range [0,%d)", lo, hi, ls.count))
	}
	if lo == hi {
		return
	}
	// Seed the odometer over the dimensions other than axis at line lo;
	// coords[axis] stays 0.
	var buf [4]int
	coords := buf[:]
	if len(ls.r) > len(buf) {
		coords = make([]int, len(ls.r))
	}
	off := ls.base
	rem := lo
	for j := len(ls.r) - 1; j >= 0; j-- {
		if j != ls.axis {
			n := ls.r[j].Len()
			coords[j] = rem % n
			off += coords[j] * ls.strides[j]
			rem /= n
		}
	}
	for i := lo; ; {
		visit(Line{Off: off, Len: ls.lineLen, Stride: ls.stride})
		if i++; i >= hi {
			return
		}
		for j := len(ls.r) - 1; ; j-- {
			if j == ls.axis {
				continue
			}
			coords[j]++
			off += ls.strides[j]
			if coords[j] < ls.r[j].Len() {
				break
			}
			off -= coords[j] * ls.strides[j]
			coords[j] = 0
		}
	}
}

// ForEachLine visits every innermost-axis run of region r in row-major
// order. The runs are contiguous (stride 1) in a row-major array; bulk
// scans and region writes use this in place of per-cell ForEachOffset.
func ForEachLine[T any](a *Array[T], r Region, visit func(ln Line)) {
	ls := LinesOf(a, r, len(a.shape)-1)
	ls.ForEach(0, ls.Count(), visit)
}
