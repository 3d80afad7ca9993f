// Package ndarray provides dense d-dimensional arrays stored in row-major
// order, together with the rectangular regions and coordinate iterators used
// by every range-query structure in this repository.
//
// The paper (§2) models an OLAP data cube as a d-dimensional array A of size
// n1 × n2 × ... × nd with 0-based indices; this package is that model. All
// higher layers — prefix sums, blocked prefix sums, max trees, sparse cubes —
// are built on Array and Region.
package ndarray

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"
)

// Array is a dense d-dimensional array of T stored in row-major order (the
// last dimension varies fastest). The zero value is not usable; construct
// arrays with New or FromSlice.
type Array[T any] struct {
	shape   []int
	strides []int
	data    []T
}

// New returns a zero-filled array with the given shape. Every extent must be
// at least 1; the paper assumes nj >= 2 for queried dimensions but degenerate
// extents of 1 are permitted here so cuboid slices can be represented.
func New[T any](shape ...int) *Array[T] {
	a, n := header[T](shape)
	a.data = make([]T, n)
	return a
}

// FromSlice wraps data as an array with the given shape. The slice is used
// directly (not copied, and no throwaway backing array is allocated) and
// must have exactly the product of the extents as its length.
func FromSlice[T any](data []T, shape ...int) *Array[T] {
	a, n := header[T](shape)
	if len(data) != n {
		panic(fmt.Sprintf("ndarray: FromSlice got %d elements for shape %v (want %d)", len(data), shape, n))
	}
	a.data = data
	return a
}

// maxBytes bounds the backing slice of one array: below what the Go runtime
// can allocate in one piece on any 64-bit platform.
const maxBytes = min(1<<47, math.MaxInt)

// CheckShape returns the cell count of an array of T with the given shape,
// or an error naming the shape where New would panic: no dimension, an
// extent below 1, or more cells than one slice of T can hold. Callers that
// take a shape from input check it here first.
func CheckShape[T any](shape []int) (int, error) {
	if len(shape) == 0 {
		return 0, errors.New("ndarray: New requires at least one dimension")
	}
	limit := maxBytes / max(int(unsafe.Sizeof(*new(T))), 1)
	n := 1
	for i, s := range shape {
		if s < 1 {
			return 0, fmt.Errorf("ndarray: dimension %d has non-positive extent %d", i, s)
		}
		if n > limit/s {
			// A copy, so that shape (New's variadic slice) stays off the heap.
			return 0, fmt.Errorf("ndarray: shape %v has more cells than an array can hold", slices.Clone(shape))
		}
		n *= s
	}
	return n, nil
}

// WidestDim returns the dimension of shape with the largest extent, the
// lowest index on ties (0 for an empty shape): the dimension a slab partition
// without a query log splits, because it has the most room for slabs.
func WidestDim(shape []int) int {
	best := 0
	for j, e := range shape {
		if e > shape[best] {
			best = j
		}
	}
	return best
}

// header validates shape and builds an array with shape and strides set but
// no backing data, returning it with the total cell count.
func header[T any](shape []int) (*Array[T], int) {
	n, err := CheckShape[T](shape)
	if err != nil {
		panic(err.Error())
	}
	a := &Array[T]{
		shape:   append([]int(nil), shape...),
		strides: make([]int, len(shape)),
	}
	stride := 1
	for i := len(shape) - 1; i >= 0; i-- {
		a.strides[i] = stride
		stride *= shape[i]
	}
	return a, n
}

// Dims returns the number of dimensions d.
func (a *Array[T]) Dims() int { return len(a.shape) }

// Shape returns the extents of the array. The caller must not modify it.
func (a *Array[T]) Shape() []int { return a.shape }

// Size returns the total number of cells N = n1*...*nd.
func (a *Array[T]) Size() int { return len(a.data) }

// Data returns the underlying row-major slice. The caller may read and write
// cells through it; it must not change its length.
func (a *Array[T]) Data() []T { return a.data }

// Strides returns the row-major strides. The caller must not modify it.
func (a *Array[T]) Strides() []int { return a.strides }

// Offset converts coordinates to a position in Data. It panics if the number
// of coordinates is wrong or any coordinate is out of bounds.
func (a *Array[T]) Offset(coords ...int) int {
	if len(coords) != len(a.shape) {
		panic(fmt.Sprintf("ndarray: got %d coordinates for %d dimensions", len(coords), len(a.shape)))
	}
	off := 0
	for i, c := range coords {
		if c < 0 || c >= a.shape[i] {
			panic(fmt.Sprintf("ndarray: coordinate %d out of range [0,%d) in dimension %d", c, a.shape[i], i))
		}
		off += c * a.strides[i]
	}
	return off
}

// Coords converts a position in Data back to coordinates, filling dst if it
// has length d (allocating otherwise), and returns it.
func (a *Array[T]) Coords(offset int, dst []int) []int {
	if offset < 0 || offset >= len(a.data) {
		panic(fmt.Sprintf("ndarray: offset %d out of range [0,%d)", offset, len(a.data)))
	}
	if len(dst) != len(a.shape) {
		dst = make([]int, len(a.shape))
	}
	for i, s := range a.strides {
		dst[i] = offset / s
		offset %= s
	}
	return dst
}

// At returns the cell at the given coordinates.
func (a *Array[T]) At(coords ...int) T { return a.data[a.Offset(coords...)] }

// Set stores v at the given coordinates.
func (a *Array[T]) Set(v T, coords ...int) { a.data[a.Offset(coords...)] = v }

// Clone returns a deep copy of the array.
func (a *Array[T]) Clone() *Array[T] {
	b := New[T](a.shape...)
	copy(b.data, a.data)
	return b
}

// Bounds returns the full region of the array, 0..nj-1 in every dimension.
func (a *Array[T]) Bounds() Region {
	r := make(Region, len(a.shape))
	for i, s := range a.shape {
		r[i] = Range{0, s - 1}
	}
	return r
}

// Fill sets every cell to f(coords). The coords slice passed to f is reused
// between calls and must not be retained.
func (a *Array[T]) Fill(f func(coords []int) T) {
	coords := make([]int, len(a.shape))
	for off := range a.data {
		a.data[off] = f(coords)
		Incr(coords, a.shape)
	}
}

// String renders small arrays for debugging: the flat data for d==1, a grid
// for d==2 and a shape summary otherwise.
func (a *Array[T]) String() string {
	switch len(a.shape) {
	case 1:
		return fmt.Sprint(a.data)
	case 2:
		var b strings.Builder
		for i := 0; i < a.shape[0]; i++ {
			row := a.data[i*a.strides[0] : i*a.strides[0]+a.shape[1]]
			fmt.Fprintln(&b, row)
		}
		return b.String()
	default:
		return fmt.Sprintf("ndarray(shape=%v, n=%d)", a.shape, len(a.data))
	}
}

// Incr advances coords through row-major order, wrapping to all zeros at
// the end. It reports whether the odometer wrapped. It is the canonical
// coordinate odometer; every package that walks cells or lines in storage
// order uses it rather than keeping a private copy.
func Incr(coords, shape []int) bool {
	for i := len(coords) - 1; i >= 0; i-- {
		coords[i]++
		if coords[i] < shape[i] {
			return false
		}
		coords[i] = 0
	}
	return true
}
