package cube

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"rangecube/internal/ndarray"
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
// The input is read once. No record is kept: each dimension column holds
// one int per record and the measures one int64 per record, so a load holds
// 8·(d+1) bytes per record besides the cube.
func InferCSV(r io.Reader, measureCol string) (*Cube, int, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("cube: reading CSV header: %w", err)
	}
	header = append([]string(nil), header...)
	measureIdx := slices.Index(header, measureCol)
	if measureIdx < 0 {
		return nil, 0, fmt.Errorf("cube: measure column %q not in header %v", measureCol, header)
	}
	if len(header) < 2 {
		return nil, 0, fmt.Errorf("cube: need at least one dimension column besides the measure")
	}

	cols := make([]*column, 0, len(header)-1)
	for i, h := range header {
		if i != measureIdx {
			cols = append(cols, &column{name: h, field: i, allInt: true})
		}
	}
	var measures []int64
	var badMeasure error // returned only once every record has been read
	for {
		// encoding/csv rejects a record whose field count differs from the
		// header's, so rec has a field for every column.
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("cube: reading CSV: %w", err)
		}
		m, err := strconv.ParseInt(rec[measureIdx], 10, 64)
		if err != nil && badMeasure == nil {
			badMeasure = fmt.Errorf("cube: record %d: measure %q is not an integer", len(measures)+1, rec[measureIdx])
		}
		measures = append(measures, m)
		for _, c := range cols {
			c.add(rec[c.field])
		}
	}
	if len(measures) == 0 {
		return nil, 0, fmt.Errorf("cube: no records")
	}

	dims := make([]*Dimension, len(cols))
	for k, c := range cols {
		for _, p := range cols[:k] {
			if p.name == c.name {
				return nil, 0, fmt.Errorf("cube: header repeats dimension column %q", c.name)
			}
		}
		dims[k] = c.dimension(len(measures))
	}
	if badMeasure != nil {
		return nil, 0, badMeasure
	}
	shape := make([]int, len(dims))
	for k, d := range dims {
		shape[k] = d.Size()
	}
	if _, err := ndarray.CheckShape[int64](shape); err != nil {
		return nil, 0, fmt.Errorf("cube: the columns' domains make no cube: %w", err)
	}
	out := New(dims...)
	data, strides := out.data.Data(), out.data.Strides()
	for rec, m := range measures {
		off := 0
		for k, c := range cols {
			off += c.vals[rec] * strides[k]
		}
		s := data[off] + m
		if (s > data[off]) != (m > 0) {
			return nil, 0, fmt.Errorf("cube: record %d: measure %d takes its cell past the int64 range", rec+1, m)
		}
		data[off] = s
	}
	return out, len(measures), nil
}

// column is one dimension column of a load. vals holds an int per record:
// the value itself while every spelling so far is a canonical integer, after
// that an id into dict, the column's distinct spellings; dimension rewrites
// both kinds to ranks.
type column struct {
	name     string
	field    int
	vals     []int
	dict     map[string]int
	allInt   bool // every value so far parses as an int, and min and max bound them
	min, max int
}

func (c *column) add(s string) {
	if c.allInt {
		v, err := strconv.Atoi(s)
		if err == nil {
			if len(c.vals) == 0 || v < c.min {
				c.min = v
			}
			if len(c.vals) == 0 || v > c.max {
				c.max = v
			}
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
func canonical(s string) bool {
	if s[0] == '-' {
		return s[1] != '0'
	}
	return s[0] != '+' && (s[0] != '0' || s == "0")
}

// spell turns a column of values into ids of their spellings, which are all
// canonical.
func (c *column) spell() {
	c.dict = make(map[string]int)
	for i, v := range c.vals {
		c.vals[i] = c.intern(strconv.Itoa(v))
	}
}

func (c *column) intern(s string) int {
	id, ok := c.dict[s]
	if !ok {
		id = len(c.dict)
		c.dict[strings.Clone(s)] = id // s points into the whole record
	}
	return id
}

// dimension decides the column's domain and rewrites vals to ranks in it.
// An integer column is a dense domain min..max unless its extent exceeds
// 16·distinct+64, counting distinct spellings; otherwise, and for any other
// column, the domain is the distinct spellings in sorted order.
func (c *column) dimension(rows int) *Dimension {
	if c.allInt {
		span := uint64(c.max) - uint64(c.min) // max−min, exact over all of int
		distinct := len(c.dict)
		if c.dict == nil {
			distinct = rows // a span past 16·rows+64 is sparse whatever the count
			if span < uint64(16*rows+64) {
				distinct = c.distinctInts(span)
			}
		}
		if span < uint64(16*distinct+64) {
			if c.dict == nil {
				for i := range c.vals {
					c.vals[i] -= c.min
				}
			} else {
				rank := make([]int, len(c.dict))
				for s, id := range c.dict {
					v, _ := strconv.Atoi(s)
					rank[id] = v - c.min
				}
				c.remap(rank)
			}
			return NewIntDimension(c.name, c.min, c.max)
		}
	}
	if c.dict == nil {
		c.spell()
	}
	values := make([]string, 0, len(c.dict))
	for s := range c.dict {
		values = append(values, s)
	}
	slices.Sort(values)
	rank := make([]int, len(values))
	for r, s := range values {
		rank[c.dict[s]] = r
	}
	c.remap(rank)
	return NewCategoryDimension(c.name, values...)
}

// distinctInts counts the column's distinct values with a bitset over
// min..min+span.
func (c *column) distinctInts(span uint64) int {
	set := make([]uint64, span/64+1)
	for _, v := range c.vals {
		o := uint64(v) - uint64(c.min)
		set[o/64] |= 1 << (o % 64)
	}
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

func (c *column) remap(rank []int) {
	for i, id := range c.vals {
		c.vals[i] = rank[id]
	}
}
