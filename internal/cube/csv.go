package cube

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"

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
	rs := &records{br: bufio.NewReaderSize(r, 64<<10)}
	names, err := rs.next()
	if err != nil {
		return nil, 0, fmt.Errorf("cube: reading CSV header: %w", err)
	}
	header := make([]string, len(names))
	for i, f := range names {
		header[i] = string(f)
	}
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
	var measures blocks[int64]
	n := 0
	var badMeasure error // returned only once every record has been read
	for {
		// records rejects a record whose field count differs from the
		// header's, so rec has a field for every column.
		rec, err := rs.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("cube: reading CSV: %w", err)
		}
		n++
		m, err := parseInt(rec[measureIdx], 64)
		if err != nil && badMeasure == nil {
			badMeasure = fmt.Errorf("cube: record %d: measure %q is not an integer", n, rec[measureIdx])
		}
		measures.add(m)
		for _, c := range cols {
			c.add(rec[c.field])
		}
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("cube: no records")
	}

	dims := make([]*Dimension, len(cols))
	for k, c := range cols {
		for _, p := range cols[:k] {
			if p.name == c.name {
				return nil, 0, fmt.Errorf("cube: header repeats dimension column %q", c.name)
			}
		}
		dims[k] = c.dimension(n)
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
	for b, ms := range measures {
		for i, m := range ms {
			off := 0
			for k, c := range cols {
				off += c.vals[b][i] * strides[k]
			}
			s := data[off] + m
			if (s > data[off]) != (m > 0) {
				return nil, 0, fmt.Errorf("cube: record %d: measure %d takes its cell past the int64 range", b*blockLen+i+1, m)
			}
			data[off] = s
		}
	}
	return out, n, nil
}

// records reads CSV records as encoding/csv's default Reader does. It splits
// a line holding no '"' on ',' itself, in its buffer: "\r\n" ends a line as
// "\n" does, a '\r' before EOF is dropped, blank lines are skipped, and each
// record is as wide as the first. From the first '"' on, a csv.Reader parses
// the rest, its line numbers offset by the lines before, as if read alone.
type records struct {
	br     *bufio.Reader
	lines  int      // lines read before the first '"'
	fields int      // the first record's width; 0 until it is read
	rec    [][]byte // the last record's fields
	buf    []byte   // a line longer than br's buffer, joined; or cr's last record
	cr     *csv.Reader
}

// next returns the next record, valid until the call after, or io.EOF.
func (rs *records) next() ([][]byte, error) {
	for rs.cr == nil {
		line, err := rs.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			rs.buf = append(rs.buf[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = rs.br.ReadSlice('\n')
				rs.buf = append(rs.buf, line...)
			}
			line = rs.buf
		}
		if err != nil && (err != io.EOF || len(line) == 0) {
			return nil, err
		}
		if bytes.IndexByte(line, '"') >= 0 {
			rs.cr = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), rs.br))
			rs.cr.ReuseRecord = true
			rs.cr.FieldsPerRecord = rs.fields
			break
		}
		rs.lines++
		if n := len(line); line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		rec, start := rs.rec[:0], 0
		for i, c := range line {
			if c == ',' {
				rec = append(rec, line[start:i])
				start = i + 1
			}
		}
		rs.rec = append(rec, line[start:])
		if rs.fields == 0 {
			rs.fields = len(rs.rec)
		} else if len(rs.rec) != rs.fields {
			return nil, &csv.ParseError{StartLine: rs.lines, Line: rs.lines, Column: 1, Err: csv.ErrFieldCount}
		}
		return rs.rec, nil
	}
	rec, err := rs.cr.Read()
	if pe, ok := err.(*csv.ParseError); ok {
		pe.StartLine, pe.Line = pe.StartLine+rs.lines, pe.Line+rs.lines
	}
	if err != nil {
		return nil, err
	}
	rs.buf, rs.rec = rs.buf[:0], rs.rec[:0]
	for _, f := range rec {
		rs.buf = append(rs.buf, f...)
		rs.rec = append(rs.rec, rs.buf[len(rs.buf)-len(f):])
	}
	return rs.rec, nil
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

// blocks holds a column of values in blocks of blockLen: the first grows as
// a slice does, each later one is allocated whole, so a load never copies
// what it has read to make room.
type blocks[T int | int64] [][]T

const blockLen = 1 << 16

func (bs *blocks[T]) add(v T) {
	n := len(*bs)
	if n == 0 || len((*bs)[n-1]) == blockLen {
		*bs = append(*bs, make([]T, 0, min(n, 1)*blockLen))
		n++
	}
	(*bs)[n-1] = append((*bs)[n-1], v)
}

// column is one dimension column of a load. vals holds an int per record:
// the value itself while every spelling so far is a canonical integer, after
// that an id into dict, the column's distinct spellings; dimension rewrites
// both kinds to ranks.
type column struct {
	name     string
	field    int
	vals     blocks[int]
	dict     map[string]int
	allInt   bool // every value so far parses as an int, and min and max bound them
	min, max int
}

func (c *column) add(s []byte) {
	if c.allInt {
		v64, err := parseInt(s, strconv.IntSize)
		v := int(v64)
		if err == nil {
			if len(c.vals) == 0 || v < c.min {
				c.min = v
			}
			if len(c.vals) == 0 || v > c.max {
				c.max = v
			}
			if c.dict == nil && canonical(s) {
				c.vals.add(v)
				return
			}
		} else {
			c.allInt = false
		}
	}
	if c.dict == nil {
		c.spell()
	}
	c.vals.add(c.intern(s))
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
	for _, b := range c.vals {
		for i, v := range b {
			b[i] = c.intern([]byte(strconv.Itoa(v)))
		}
	}
}

// intern returns the id of spelling s, which the dictionary copies only when
// it first meets it.
func (c *column) intern(s []byte) int {
	id, ok := c.dict[string(s)]
	if !ok {
		id = len(c.dict)
		c.dict[string(s)] = id
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
				for _, b := range c.vals {
					for i := range b {
						b[i] -= c.min
					}
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
	for _, b := range c.vals {
		for _, v := range b {
			o := uint64(v) - uint64(c.min)
			set[o/64] |= 1 << (o % 64)
		}
	}
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

func (c *column) remap(rank []int) {
	for _, b := range c.vals {
		for i, id := range b {
			b[i] = rank[id]
		}
	}
}
