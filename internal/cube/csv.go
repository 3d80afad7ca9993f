package cube

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"rangecube/internal/ndarray"
	"rangecube/internal/parallel"
)

// InferCSV reads CSV data with a header row, infers a dimension per column
// (a contiguous integer domain when every value parses as an int, an
// ordered categorical domain otherwise), treats measureCol as the int64
// measure, and loads every record into a fresh cube. This is the §2
// attribute→rank mapping applied to raw records: integer attributes get
// the simple offset function, categorical ones a lookup table.
//
// Column order in the header determines dimension order. The measure
// column may appear anywhere. Returns the cube and the number of records
// loaded. A load whose measures sum past int64 on one cell is refused with
// an error naming the record that crossed the limit.
//
// The input is read once, in line-aligned chunks of about 256 KiB that the
// worker pool parses into parts, one reused buffer per worker; the parts
// merge in input order, so the domains, the cells and every error are those
// of reading the records one by one. No record is kept: each dimension
// column holds one int per record and the measures one int64 per record, so
// a load holds 8·(d+1) bytes per record plus one chunk buffer per worker
// besides the cube.
func InferCSV(r io.Reader, measureCol string) (*Cube, int, error) {
	src := &source{r: r, size: chunkLen}
	var buf, chunk []byte
	var header []string
	for header == nil {
		var quoted bool
		if chunk, quoted = src.read(buf); quoted {
			return inferQuoted(src, chunk, measureCol)
		}
		if len(chunk) == 0 {
			return nil, 0, fmt.Errorf("cube: reading CSV header: %w", src.err)
		}
		buf = chunk[:0]
		header, chunk = src.header(chunk)
	}
	l, err := newLayout(header, measureCol)
	if err != nil {
		return nil, 0, err
	}
	p0 := src.add(false)
	workers := 1
	if !src.done {
		workers = parallel.Workers()
	}
	parallel.Each(workers, workers*parallel.Grain, func(w int) {
		if w == 0 {
			src.parse(l, p0, chunk, buf)
		} else {
			src.parse(l, nil, nil, nil)
		}
	})
	return l.merge(src)
}

// inferQuoted loads an input whose header chunk holds a '"': encoding/csv
// reads all of it, the header included, into one part.
func inferQuoted(src *source, chunk []byte, measureCol string) (*Cube, int, error) {
	cr := src.csv(chunk)
	header, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("cube: reading CSV header: %w", offset(err, src.lines))
	}
	l, err := newLayout(header, measureCol)
	if err != nil {
		return nil, 0, err
	}
	src.add(true).scanQuoted(cr, l)
	return l.merge(src)
}

// layout is the header's plan for a record: the dimension column each field
// feeds, -1 for the measure's, and the columns' names.
type layout struct {
	names []string
	cols  []int
}

func newLayout(header []string, measureCol string) (*layout, error) {
	measureIdx := slices.Index(header, measureCol)
	if measureIdx < 0 {
		return nil, fmt.Errorf("cube: measure column %q not in header %v", measureCol, header)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("cube: need at least one dimension column besides the measure")
	}
	l := &layout{cols: make([]int, len(header))}
	for i, h := range header {
		l.cols[i] = -1
		if i != measureIdx {
			l.cols[i] = len(l.names)
			l.names = append(l.names, h)
		}
	}
	return l, nil
}

// merge merges the source's parts in input order into a cube. A failed load
// reports the first fault in input order, faults of reading before the
// others, as a loader reading record by record would.
func (l *layout) merge(src *source) (*Cube, int, error) {
	parts := src.parts
	lines, n := src.lines, 0
	for _, p := range parts {
		if p.err != nil {
			return nil, 0, fmt.Errorf("cube: reading CSV: %w", offset(p.err, lines))
		}
		lines, n = lines+p.lines, n+p.n
	}
	if src.err != nil && src.err != io.EOF {
		return nil, 0, fmt.Errorf("cube: reading CSV: %w", src.err)
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("cube: no records")
	}
	for k, name := range l.names {
		if slices.Contains(l.names[:k], name) {
			return nil, 0, fmt.Errorf("cube: header repeats dimension column %q", name)
		}
	}
	rec := 0
	for _, p := range parts {
		if p.bad != 0 {
			return nil, 0, fmt.Errorf("cube: record %d: measure %q is not an integer", rec+p.bad, p.badText)
		}
		rec += p.n
	}

	dims := make([]*Dimension, len(l.names))
	ranks := make([]ranks, len(dims))
	shape := make([]int, len(dims))
	for k, name := range l.names {
		dims[k], ranks[k] = dimension(name, parts, k, n)
		shape[k] = dims[k].Size()
	}
	if _, err := ndarray.CheckShape[int64](shape); err != nil {
		return nil, 0, fmt.Errorf("cube: the columns' domains make no cube: %w", err)
	}
	// Each part's records become cell offsets, in its first column, on the
	// workers. A value column's lo moves into base: Σ(v−lo)·s is exact even
	// where a v·s wraps. The other columns are dropped before the cube is
	// allocated.
	strides, base := make([]int, len(dims)), 0
	for k, stride := len(dims)-1, 1; k >= 0; k-- {
		strides[k], stride = stride, stride*shape[k]
		if ranks[k].ids == nil {
			base -= ranks[k].lo * strides[k]
		}
	}
	eachPart(parts, n, func(i int) {
		p := parts[i]
		offs := p.cols[0].vals
		for k := range p.cols {
			vals, s := p.cols[k].vals, strides[k]
			if ids := ranks[k].ids; ids != nil {
				rank := ids[i]
				for j, id := range vals {
					vals[j] = rank[id]
				}
			}
			if k == 0 {
				for j, v := range vals {
					offs[j] = v*s + base
				}
			} else {
				for j, v := range vals {
					offs[j] += v * s
				}
			}
		}
		clear(p.cols[1:])
	})
	out := New(dims...)
	data := out.data.Data()
	rec = 0
	for _, p := range parts {
		offs := p.cols[0].vals[:len(p.measures)]
		for j, m := range p.measures {
			off := offs[j]
			s := data[off] + m
			if (s > data[off]) != (m > 0) {
				return nil, 0, fmt.Errorf("cube: record %d: measure %d takes its cell past the int64 range", rec+j+1, m)
			}
			data[off] = s
		}
		rec += p.n
	}
	return out, n, nil
}

// parseInt is strconv.ParseInt(b, 10, bitSize) for a bitSize of 32 or 64.
// The plain shape, an optional '-' and up to 9 or 18 digits, it parses in one
// loop; any other shape it leaves to strconv, whose range and errors stand.
func parseInt(b []byte, bitSize int) (int64, error) {
	d, sign := b, int64(1)
	if len(b) > 0 && b[0] == '-' {
		d, sign = b[1:], -1
	}
	if len(d) == 0 || len(d) > bitSize*9/32 {
		return strconv.ParseInt(string(b), 10, bitSize)
	}
	var v int64
	for _, c := range d {
		if c-'0' > 9 {
			return strconv.ParseInt(string(b), 10, bitSize)
		}
		v = v*10 + int64(c-'0')
	}
	return sign * v, nil
}

// column is one dimension column of a part. vals holds an int per record:
// the value itself while every spelling so far is a canonical integer, after
// that an id into words, the part's distinct spellings in first-appearance
// order; merge rewrites both kinds to ranks, then to cell offsets.
type column struct {
	vals     []int
	dict     map[string]int // spelling → id; nil while vals are values
	words    []string
	allInt   bool // every value so far parses as an int, and min and max bound them
	min, max int
}

func (c *column) add(s []byte) {
	if c.allInt {
		v64, err := parseInt(s, strconv.IntSize)
		v := int(v64)
		if err == nil {
			c.min, c.max = min(c.min, v), max(c.max, v)
			if c.dict == nil && canonical(s) {
				c.vals = append(c.vals, v)
				return
			}
		} else {
			c.allInt = false
		}
	}
	if c.dict == nil {
		c.spell()
	}
	c.vals = append(c.vals, c.intern(s))
}

// canonical reports whether s, which strconv.Atoi accepted, is the spelling
// strconv.Itoa gives its value: no '+', no leading zero, no "-0". Other
// spellings ("007", "+7") are distinct values of the column.
func canonical(s []byte) bool {
	if s[0] == '-' {
		return s[1] != '0'
	}
	return s[0] != '+' && (s[0] != '0' || len(s) == 1)
}

// spell turns a column of values into ids of their spellings, which are all
// canonical.
func (c *column) spell() {
	c.dict = make(map[string]int)
	for i, v := range c.vals {
		c.vals[i] = c.intern([]byte(strconv.Itoa(v)))
	}
}

// intern returns the id of spelling s, which the dictionary copies only when
// it first meets it.
func (c *column) intern(s []byte) int {
	id, ok := c.dict[string(s)]
	if !ok {
		id = len(c.words)
		c.words = append(c.words, string(s))
		c.dict[c.words[id]] = id
	}
	return id
}

// ranks maps a column's vals to ranks: v−lo, or where ids is set, the
// part's ids through ids[part].
type ranks struct {
	lo  int
	ids [][]int
}

// dimension decides column k's domain from every part's. An integer column
// is a dense domain min..max unless its extent exceeds 16·distinct+64,
// counting distinct spellings; otherwise, and for any other column, the
// domain is the distinct spellings in sorted order.
func dimension(name string, parts []*part, k, rows int) (*Dimension, ranks) {
	allInt, spelled := true, false
	lo, hi := math.MaxInt, math.MinInt
	for _, p := range parts {
		c := &p.cols[k]
		allInt, spelled = allInt && c.allInt, spelled || c.dict != nil
		lo, hi = min(lo, c.min), max(hi, c.max)
	}
	span := uint64(hi) - uint64(lo) // hi−lo, exact over all of int
	if allInt && !spelled && dense(parts, k, lo, span, rows) {
		return NewIntDimension(name, lo, hi), ranks{lo: lo}
	}

	// The domain is a set of spellings: merge the parts' in input order,
	// mapping each part's ids to the merged ones, then to ranks.
	eachPart(parts, rows, func(i int) {
		if c := &parts[i].cols[k]; c.dict == nil {
			c.spell()
		}
	})
	ids := make(map[string]int)
	var words []string
	local := make([][]int, len(parts))
	for i, p := range parts {
		local[i] = make([]int, len(p.cols[k].words))
		for id, s := range p.cols[k].words {
			g, ok := ids[s]
			if !ok {
				g = len(words)
				ids[s] = g
				words = append(words, s)
			}
			local[i][id] = g
		}
	}
	rank := make([]int, len(words))
	var d *Dimension
	if allInt && span < uint64(16*len(words)+64) {
		for g, s := range words {
			v, _ := strconv.Atoi(s)
			rank[g] = v - lo
		}
		d = NewIntDimension(name, lo, hi)
	} else {
		slices.Sort(words)
		for r, s := range words {
			rank[ids[s]] = r
		}
		d = NewCategoryDimension(name, words...)
	}
	for _, to := range local {
		for id, g := range to {
			to[id] = rank[g]
		}
	}
	return d, ranks{ids: local}
}

// dense reports whether column k's values, all within lo..lo+span, are
// distinct enough for the dense domain: 16·distinct+64 > span. It counts
// them with a bitset until they are.
func dense(parts []*part, k, lo int, span uint64, rows int) bool {
	if span < 64 {
		return true
	}
	need := (span-64)/16 + 1
	if need > uint64(rows) {
		return false
	}
	set := make([]uint64, span/64+1)
	for _, p := range parts {
		for _, v := range p.cols[k].vals {
			o := uint64(v) - uint64(lo)
			if w, bit := set[o/64], uint64(1)<<(o%64); w&bit == 0 {
				set[o/64] = w | bit
				if need--; need == 0 {
					return true
				}
			}
		}
	}
	return false
}

// eachPart runs f on the index of every part, split over the workers when
// the load's rows make that worth it.
func eachPart(parts []*part, rows int, f func(i int)) {
	parallel.For(len(parts), rows, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}
