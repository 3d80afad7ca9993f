package ndarray

import (
	"fmt"
	"strings"
)

// Range is a closed interval Lo..Hi of indices in one dimension. A range
// with Hi < Lo is empty. This mirrors the paper's ℓj : hj notation (§2).
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range (0 if empty).
func (r Range) Len() int {
	if r.Hi < r.Lo {
		return 0
	}
	return r.Hi - r.Lo + 1
}

// Empty reports whether the range contains no index.
func (r Range) Empty() bool { return r.Hi < r.Lo }

// Contains reports whether i lies in the range.
func (r Range) Contains(i int) bool { return r.Lo <= i && i <= r.Hi }

// Intersect returns the overlap of two ranges (possibly empty).
func (r Range) Intersect(s Range) Range {
	return Range{max(r.Lo, s.Lo), min(r.Hi, s.Hi)}
}

func (r Range) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// Region is a d-dimensional rectangular region: the Cartesian product of one
// Range per dimension. It corresponds to Region(ℓ1:h1, ..., ℓd:hd) in the
// paper. A Region is empty if any of its ranges is empty.
type Region []Range

// Reg builds a region from alternating lo,hi pairs: Reg(l1,h1,l2,h2,...).
func Reg(bounds ...int) Region {
	if len(bounds)%2 != 0 {
		panic("ndarray: Reg requires lo,hi pairs")
	}
	r := make(Region, len(bounds)/2)
	for i := range r {
		r[i] = Range{bounds[2*i], bounds[2*i+1]}
	}
	return r
}

// Dims returns the dimensionality of the region.
func (r Region) Dims() int { return len(r) }

// Empty reports whether the region contains no cell.
func (r Region) Empty() bool {
	for _, rng := range r {
		if rng.Empty() {
			return true
		}
	}
	return len(r) == 0
}

// Volume returns the number of integer points in the region, the paper's
// query volume V = ∏ (hj−ℓj+1). An empty region has volume 0.
func (r Region) Volume() int {
	v := 1
	for _, rng := range r {
		v *= rng.Len()
	}
	return v
}

// SurfaceArea returns the paper's query surface statistic
// S = Σ_i 2V/x_i (Table 1), where x_i is the side length in dimension i.
// It is 0 for empty regions.
func (r Region) SurfaceArea() int {
	v := r.Volume()
	if v == 0 {
		return 0
	}
	s := 0
	for _, rng := range r {
		s += 2 * v / rng.Len()
	}
	return s
}

// Contains reports whether the point given by coords lies in the region.
func (r Region) Contains(coords []int) bool {
	if len(coords) != len(r) {
		panic(fmt.Sprintf("ndarray: point of dimension %d tested against region of dimension %d", len(coords), len(r)))
	}
	for i, rng := range r {
		if !rng.Contains(coords[i]) {
			return false
		}
	}
	return true
}

// ContainsRegion reports whether s lies entirely inside r. An empty s is
// contained in everything.
func (r Region) ContainsRegion(s Region) bool {
	if s.Empty() {
		return true
	}
	for i, rng := range r {
		if s[i].Lo < rng.Lo || s[i].Hi > rng.Hi {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of two regions (possibly empty).
func (r Region) Intersect(s Region) Region {
	if len(r) != len(s) {
		panic("ndarray: intersecting regions of different dimensionality")
	}
	out := make(Region, len(r))
	for i := range r {
		out[i] = r[i].Intersect(s[i])
	}
	return out
}

// Equal reports whether two regions have identical bounds.
func (r Region) Equal(s Region) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if r[i] != s[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the region.
func (r Region) Clone() Region { return append(Region(nil), r...) }

func (r Region) String() string {
	parts := make([]string, len(r))
	for i, rng := range r {
		parts[i] = rng.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ForEach visits every point of the region in row-major order, passing a
// reused coordinate slice. It does nothing for empty regions.
func (r Region) ForEach(visit func(coords []int)) {
	if r.Empty() {
		return
	}
	coords := make([]int, len(r))
	for i := range r {
		coords[i] = r[i].Lo
	}
	for {
		visit(coords)
		i := len(r) - 1
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] <= r[i].Hi {
				break
			}
			coords[i] = r[i].Lo
		}
		if i < 0 {
			return
		}
	}
}

// ForEachOffset visits every point of the region within an array of the
// given shape/strides, in row-major order, passing the flat offset: each
// innermost run of ForEachLine, cell by cell.
func ForEachOffset[T any](a *Array[T], r Region, visit func(offset int)) {
	ForEachLine(a, r, func(ln Line) {
		for off := ln.Off; off < ln.Off+ln.Len; off++ {
			visit(off)
		}
	})
}
