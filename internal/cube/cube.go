// Package cube implements the paper's MDDB model (§2): a d-dimensional
// array indexed by the rank domains of d functional attributes, built by
// aggregating the measure attribute of records that share functional
// attribute values. Range queries are expressed over attribute values and
// translated to rank-domain regions.
//
// As §2 prescribes, each dimension maps its attribute domain to 0..n−1:
// contiguous integer domains (age, year) use a simple offset function;
// categorical domains (state, insurance type) use a lookup table in
// domain order, so contiguous ranges over the rank domain remain
// meaningful.
package cube

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rangecube/internal/ndarray"
)

// Dimension is one functional attribute with its rank mapping.
type Dimension struct {
	name   string
	lo, hi int            // integer domain (when index == nil)
	values []string       // categorical domain in rank order
	index  map[string]int // categorical value → rank
}

// NewIntDimension declares an attribute over the contiguous integer domain
// lo..hi; the rank of v is v−lo, the "simple function mapping" of §2.
func NewIntDimension(name string, lo, hi int) *Dimension {
	if hi < lo {
		panic(fmt.Sprintf("cube: dimension %q has empty domain %d..%d", name, lo, hi))
	}
	return &Dimension{name: name, lo: lo, hi: hi}
}

// NewCategoryDimension declares an attribute over an ordered categorical
// domain; ranks follow the given order, and values map through a lookup
// table (the hash-table mapping of §2).
func NewCategoryDimension(name string, values ...string) *Dimension {
	if len(values) == 0 {
		panic(fmt.Sprintf("cube: dimension %q has no values", name))
	}
	idx := make(map[string]int, len(values))
	for i, v := range values {
		if _, dup := idx[v]; dup {
			panic(fmt.Sprintf("cube: dimension %q has duplicate value %q", name, v))
		}
		idx[v] = i
	}
	return &Dimension{name: name, values: values, index: idx}
}

// Name returns the attribute name.
func (d *Dimension) Name() string { return d.name }

// Size returns the rank-domain extent n.
func (d *Dimension) Size() int {
	if d.index != nil {
		return len(d.values)
	}
	return d.hi - d.lo + 1
}

// Rank maps an attribute value (int for integer domains, string for
// categorical) to its rank.
func (d *Dimension) Rank(value any) (int, error) {
	switch v := value.(type) {
	case int:
		return d.rankInt(v)
	case string:
		return d.rankString(v)
	default:
		return 0, fmt.Errorf("cube: unsupported value type %T for dimension %q", value, d.name)
	}
}

// rankInt is Rank of an int value, without boxing it.
func (d *Dimension) rankInt(v int) (int, error) {
	if d.index != nil {
		return 0, fmt.Errorf("cube: dimension %q is categorical; got int %d", d.name, v)
	}
	if v < d.lo || v > d.hi {
		return 0, fmt.Errorf("cube: value %d outside domain %d..%d of %q", v, d.lo, d.hi, d.name)
	}
	return v - d.lo, nil
}

// rankString is Rank of a string value.
func (d *Dimension) rankString(v string) (int, error) {
	if d.index == nil {
		return 0, fmt.Errorf("cube: dimension %q is integer; got string %q", d.name, v)
	}
	r, ok := d.index[v]
	if !ok {
		return 0, fmt.Errorf("cube: unknown value %q for dimension %q", v, d.name)
	}
	return r, nil
}

// Spec resolves one selector of the HTTP API's grammar — "lo..hi", "*" or a
// single value, where a value that strconv.Atoi parses is an int and any
// other a string — to the ranks it selects, as Region resolves the Selector
// it names.
func (d *Dimension) Spec(spec string) (ndarray.Range, error) {
	rank := func(v string) (int, error) {
		if n, err := strconv.Atoi(v); err == nil {
			return d.rankInt(n)
		}
		return d.rankString(v)
	}
	lo, hi, isRange := strings.Cut(spec, "..")
	switch {
	case isRange:
		l, err := rank(lo)
		if err != nil {
			return ndarray.Range{}, err
		}
		h, err := rank(hi)
		if err != nil {
			return ndarray.Range{}, err
		}
		if h < l {
			return ndarray.Range{}, invertedRange(d.name)
		}
		return ndarray.Range{Lo: l, Hi: h}, nil
	case spec == "*":
		return ndarray.Range{Lo: 0, Hi: d.Size() - 1}, nil
	default:
		r, err := rank(spec)
		return ndarray.Range{Lo: r, Hi: r}, err
	}
}

// AppendValue appends ValueAt(rank) to dst.
func (d *Dimension) AppendValue(dst []byte, rank int) []byte {
	if rank < 0 || rank >= d.Size() {
		panic(fmt.Sprintf("cube: rank %d outside dimension %q", rank, d.name))
	}
	if d.index != nil {
		return append(dst, d.values[rank]...)
	}
	return strconv.AppendInt(dst, int64(d.lo+rank), 10)
}

// ValueAt renders the attribute value at a rank.
func (d *Dimension) ValueAt(rank int) string {
	if rank < 0 || rank >= d.Size() {
		panic(fmt.Sprintf("cube: rank %d outside dimension %q", rank, d.name))
	}
	if d.index != nil {
		return d.values[rank]
	}
	return strconv.Itoa(d.lo + rank)
}

// Cube is the materialized MDDB: the dense measure array plus the
// dimension metadata. Records with equal functional attributes are combined
// by summing their measures, exactly as §1 describes.
type Cube struct {
	dims   []*Dimension
	byName map[string]int
	shape  []int // the dimensions' sizes: Shape never reads data, which Adopt moves
	data   *ndarray.Array[int64]
}

// New allocates an empty cube over the given dimensions.
func New(dims ...*Dimension) *Cube { return Over(nil, dims...) }

// Over returns a cube over the given dimensions whose cells are a, which it
// adopts; a's shape must be the dimensions' sizes, and a nil a is all zeros.
func Over(a *ndarray.Array[int64], dims ...*Dimension) *Cube {
	if len(dims) == 0 {
		panic("cube: need at least one dimension")
	}
	c := &Cube{dims: dims, byName: make(map[string]int, len(dims)), shape: make([]int, len(dims))}
	for i, d := range dims {
		if _, dup := c.byName[d.name]; dup {
			panic(fmt.Sprintf("cube: duplicate dimension name %q", d.name))
		}
		c.byName[d.name], c.shape[i] = i, d.Size()
	}
	if a == nil {
		a = ndarray.New[int64](c.shape...)
	}
	c.Adopt(a)
	return c
}

// Adopt makes a the cube's cells; a's shape must be the cube's. Shape, Dims
// and Dimension read no cells, so their callers need not exclude Adopt.
func (c *Cube) Adopt(a *ndarray.Array[int64]) {
	if !slices.Equal(a.Shape(), c.shape) {
		panic(fmt.Sprintf("cube: cells of shape %v for a cube of shape %v", a.Shape(), c.shape))
	}
	c.data = a
}

// Dims returns the dimensionality d.
func (c *Cube) Dims() int { return len(c.dims) }

// Dimension returns dimension metadata by position.
func (c *Cube) Dimension(i int) *Dimension { return c.dims[i] }

// Shape returns the rank-domain extents.
func (c *Cube) Shape() []int { return c.shape }

// Data exposes the dense measure array for the query engines.
func (c *Cube) Data() *ndarray.Array[int64] { return c.data }

// Add aggregates a record: the measure is summed into the cell addressed by
// one attribute value per dimension.
func (c *Cube) Add(measure int64, values ...any) error {
	if len(values) != len(c.dims) {
		return fmt.Errorf("cube: record has %d attribute values, cube has %d dimensions", len(values), len(c.dims))
	}
	coords := make([]int, len(values))
	for i, v := range values {
		r, err := c.dims[i].Rank(v)
		if err != nil {
			return err
		}
		coords[i] = r
	}
	c.data.Set(c.data.At(coords...)+measure, coords...)
	return nil
}

// Selector restricts one dimension of a query.
type Selector struct {
	dim    string
	all    bool
	eq     any
	lo, hi any
	ranged bool
}

// Between selects the contiguous attribute range lo..hi on a dimension.
func Between(dim string, lo, hi any) Selector {
	return Selector{dim: dim, lo: lo, hi: hi, ranged: true}
}

// Eq selects a single attribute value.
func Eq(dim string, v any) Selector { return Selector{dim: dim, eq: v} }

// All selects the whole domain of a dimension (the paper's "all" value).
func All(dim string) Selector { return Selector{dim: dim, all: true} }

// Region translates selectors to a rank-domain region. Dimensions without a
// selector default to All. Selecting the same dimension twice is an error.
func (c *Cube) Region(sels ...Selector) (ndarray.Region, error) {
	r := make(ndarray.Region, len(c.dims))
	for i, d := range c.dims {
		r[i] = ndarray.Range{Lo: 0, Hi: d.Size() - 1}
	}
	for k, s := range sels {
		i, err := c.Index(s.dim)
		if err != nil {
			return nil, err
		}
		for _, p := range sels[:k] {
			if p.dim == s.dim {
				return nil, fmt.Errorf("cube: dimension %q selected twice", s.dim)
			}
		}
		switch {
		case s.all:
			// keep the full range
		case s.ranged:
			lo, err := c.dims[i].Rank(s.lo)
			if err != nil {
				return nil, err
			}
			hi, err := c.dims[i].Rank(s.hi)
			if err != nil {
				return nil, err
			}
			if hi < lo {
				return nil, invertedRange(s.dim)
			}
			r[i] = ndarray.Range{Lo: lo, Hi: hi}
		default:
			rank, err := c.dims[i].Rank(s.eq)
			if err != nil {
				return nil, err
			}
			r[i] = ndarray.Range{Lo: rank, Hi: rank}
		}
	}
	return r, nil
}

// Index returns the position of the dimension named name.
func (c *Cube) Index(name string) (int, error) {
	i, ok := c.byName[name]
	if !ok {
		return 0, fmt.Errorf("cube: unknown dimension %q", name)
	}
	return i, nil
}

func invertedRange(dim string) error {
	return fmt.Errorf("cube: inverted range on %q", dim)
}

// Cuboid materializes the group-by over the named subset of dimensions
// (§9): the returned cube keeps those dimensions and aggregates the measure
// over all others (which take the implicit value "all").
func (c *Cube) Cuboid(dimNames ...string) (*Cube, error) {
	if len(dimNames) == 0 {
		return nil, fmt.Errorf("cube: cuboid needs at least one dimension")
	}
	keep := make([]int, len(dimNames))
	seen := map[int]bool{}
	for k, name := range dimNames {
		i, ok := c.byName[name]
		if !ok {
			return nil, fmt.Errorf("cube: unknown dimension %q", name)
		}
		if seen[i] {
			return nil, fmt.Errorf("cube: dimension %q repeated", name)
		}
		seen[i] = true
		keep[k] = i
	}
	dims := make([]*Dimension, len(keep))
	for k, i := range keep {
		dims[k] = c.dims[i]
	}
	out := New(dims...)
	coords := make([]int, len(keep))
	c.data.Bounds().ForEach(func(full []int) {
		v := c.data.At(full...)
		if v == 0 {
			return
		}
		for k, i := range keep {
			coords[k] = full[i]
		}
		out.data.Set(out.data.At(coords...)+v, coords...)
	})
	return out, nil
}
