package cube

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"rangecube/internal/naive"
)

const sampleCSV = `age,year,state,type,revenue
40,1990,CA,auto,100
40,1990,CA,auto,250
37,1988,NY,auto,75
52,1996,TX,auto,30
20,1987,AZ,home,999
60,1992,CA,health,45
`

func TestInferCSV(t *testing.T) {
	c, n, err := InferCSV(strings.NewReader(sampleCSV), "revenue")
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("loaded %d records, want 6", n)
	}
	if c.Dims() != 4 {
		t.Fatalf("Dims = %d, want 4", c.Dims())
	}
	// age and year inferred as integer domains over their observed ranges.
	if c.Dimension(0).Name() != "age" || c.Dimension(0).Size() != 60-20+1 {
		t.Fatalf("age dimension: %q size %d", c.Dimension(0).Name(), c.Dimension(0).Size())
	}
	if c.Dimension(1).Size() != 1996-1987+1 {
		t.Fatalf("year size = %d", c.Dimension(1).Size())
	}
	// state and type inferred as sorted categories.
	if c.Dimension(2).Size() != 4 || c.Dimension(2).ValueAt(0) != "AZ" {
		t.Fatalf("state dimension wrong: size %d first %q", c.Dimension(2).Size(), c.Dimension(2).ValueAt(0))
	}
	// Aggregation happened.
	r, err := c.Region(Eq("age", 40), Eq("year", 1990), Eq("state", "CA"), Eq("type", "auto"))
	if err != nil {
		t.Fatal(err)
	}
	if got := naive.SumInt64(c.Data(), r, nil); got != 350 {
		t.Fatalf("aggregated cell = %d, want 350", got)
	}
	total := naive.SumInt64(c.Data(), c.Data().Bounds(), nil)
	if total != 1499 {
		t.Fatalf("total = %d, want 1499", total)
	}
}

func TestInferCSVSparseIntFallsBackToCategorical(t *testing.T) {
	// An "id"-like integer column with a huge range must not allocate a
	// huge dense dimension.
	data := `id,flag,measure
1,a,10
1000000,b,20
`
	c, _, err := InferCSV(strings.NewReader(data), "measure")
	if err != nil {
		t.Fatal(err)
	}
	if c.Dimension(0).Size() != 2 {
		t.Fatalf("id dimension size = %d, want 2 (categorical fallback)", c.Dimension(0).Size())
	}
}

// A column spanning all of int64 has an extent that does not fit an int:
// it must fall back to categorical, not wrap to a zero-sized dimension.
func TestInferCSVSpanOverflowIsCategorical(t *testing.T) {
	data := "x,m\n-9223372036854775808,1\n9223372036854775807,2\n"
	c, n, err := InferCSV(strings.NewReader(data), "m")
	if err != nil {
		t.Fatal(err)
	}
	d := c.Dimension(0)
	if n != 2 || d.index == nil || d.Size() != 2 || d.ValueAt(0) != "-9223372036854775808" {
		t.Fatalf("n = %d, x: categorical %v, size %d, first %q", n, d.index != nil, d.Size(), d.ValueAt(0))
	}
	if got := c.Data().Data(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("cells = %v, want [1 2]", got)
	}
}

func TestInferCSVErrors(t *testing.T) {
	cases := map[string]struct{ data, want string }{
		"missing measure":    {"a,b\n1,2\n", "not in header"},
		"no dimensions":      {"m\n1\n", "at least one dimension"},
		"no records":         {"a,m\n", "no records"},
		"ragged row":         {"a,m\n1,2,3\n", "wrong number of fields"},
		"bad measure":        {"a,m\n1,xyz\n", `record 1: measure "xyz"`},
		"ragged after bad":   {"a,m\n1,xyz\n1,2,3\n", "wrong number of fields"},
		"repeated dimension": {"a,a,m\n1,2,3\n", `repeats dimension column "a"`},
	}
	for name, tc := range cases {
		_, _, err := InferCSV(strings.NewReader(tc.data), "m")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}

// gridCSV renders a side×side grid the way bench/ renders its cells: one
// record per cell, integer dimensions d0, d1 and the measure revenue.
func gridCSV(side int) string {
	var b strings.Builder
	b.WriteString("d0,d1,revenue\n")
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			fmt.Fprintf(&b, "%d,%d,%d\n", i, j, (i*7919+j*104729)%1000-500)
		}
	}
	return b.String()
}

// inferCSVCorpus seeds FuzzInferCSV and is TestInferCSVMatchesReference's
// table: the inputs whose handling the one-pass loader must keep.
var inferCSVCorpus = []struct{ name, data, measure string }{
	{"sample", sampleCSV, "revenue"},
	{"sparse id", "id,flag,measure\n1,a,10\n1000000,b,20\n", "measure"},
	{"odd spellings dense", "x,y,m\n7,a,1\n007,b,2\n+7,a,3\n-0,b,4\n0,a,5\n", "m"},
	{"odd spellings categorical", "x,m\n007,1\n7,2\nfoo,3\n+7,4\n", "m"},
	{"odd spelling sparse", "id,m\n1,1\n0001000000,2\n1,3\n", "m"},
	{"odd spelling tips dense", "x,m\n0,1\n96,2\n096,3\n", "m"}, // 3 spellings allow a span of 96, 2 values do not
	{"span at the limit", "x,m\n0,1\n95,2\n", "m"},
	{"measure first", "m,b,a\n5,x,3\n-2,y,1\n7,x,3\n", "m"},
	{"measure twice", "m,a,m\n1,2,3\n4,5,6\n", "m"},
	{"ragged row", "a,b,m\n1,2,3\n4,5\n", "m"},
	{"bad measure then ragged", "a,m\n1,x\n2,3,4\n", "m"},
	{"bad measure twice", "a,m\n1,2\n1,x\n2,y\n", "m"},
	{"quoted", "\"a,1\",b,m\n\"x,y\",\"line\nbreak\",3\n\"x,y\",\"\"\"q\"\"\",-4\nz,\"line\nbreak\",5\n", "m"},
	{"bare quote", "a,m\nx\"y,1\n", "m"},
	{"missing measure", "a,b\n1,2\n", "m"},
	{"no records", "a,m\n", "m"},
	{"repeated dimension", "a,a,m\n1,2,3\n", "m"},
	{"span overflow", "x,m\n-9223372036854775808,1\n9223372036854775807,2\n", "m"},
	{"grid 64x64", gridCSV(64), "revenue"},
	{"too many cells", "a,b,c,d,e,f,g,m\n0,0,0,0,0,0,0,1\n79,79,79,79,79,79,79,2\n", "m"}, // 80^7 cells: an error, not a panic
	// The line scanner's edges, and its hand-off to encoding/csv at the
	// first quote.
	{"crlf", "a,b,m\r\n1,x,2\r\n3,y,4\r\n", "m"},
	{"blank lines", "a,m\n\n1,2\n\r\n\n3,4\n\r\n", "m"},
	{"no final newline", "a,m\n1,2\n3,4", "m"},
	{"final lone cr", "a,m\n1,2\n3,4\r", "m"},
	{"cr inside a field", "a,m\nx\ry,1\nx\r,2\r\n", "m"},
	{"quote on line 4 then ragged", "a,m\n1,2\n\n\"3\",4\n5,6,7\n", "m"},
	{"quoted header", "\"a\",m\n1,2\n", "m"},
	{"multi-line field then bare quote", "a,m\n1,2\n\"x\ny\"z,3\n", "m"},
	{"line past the buffer", "a,m\n" + strings.Repeat("x", 70<<10) + ",1\ny,2\n", "m"},
	{"18 and 19 digits", "x,m\n123456789012345678,999999999999999999\n-1234567890123456789,-9223372036854775808\n1234567890123456789,9223372036854775807\n", "m"},
	{"dimension past int64", "x,m\n9223372036854775808,1\n-9223372036854775809,2\n", "m"},
	{"measure past int64", "x,m\n1,2\n2,9223372036854775808\n", "m"},
	{"measure below int64", "x,m\n1,-9223372036854775809\n", "m"},
	{"odd measure spellings", "x,m\n1,+7\n2,-0\n3,007\n", "m"},
	{"span one past the limit", "x,m\n0,1\n96,2\n0,3\n0,4\n", "m"},
	// Chunk edges: at the chunk sizes of matchReference, each of these
	// falls across several chunks.
	{"quote in a later chunk", "a,m\n1,2\n3,4\n5,6\n\"7\",8\n9,10,11\n", "m"},
	{"ragged in a later chunk after a bad measure", "a,m\n1,x\n2,3\n4,5\n6,7\n8,9,10\n", "m"},
	{"crlf, blank line and final cr across chunks", "a,m\r\n1,2\r\n\r\n3,4\r\n\n5,6\r\n7,8\r", "m"},
	{"line longer than a chunk", "a,m\n1,2\n" + strings.Repeat("y", 100) + ",3\n4,5\n", "m"},
	{"odd spelling and a word in a later chunk", "x,y,m\n1,1,1\n2,2,2\n3,3,3\n4,4,4\n007,5,5\n6,foo,6\n", "m"},
	{"odd spelling in a later chunk, sparse", "x,m\n1,1\n2,2\n3,3\n01000,4\n", "m"},
	{"cell overflow in a later part", "r,m\nw,4611686018427387904\ne,1\ne,2\ne,3\nw,4611686018427387904\n", "m"},
}

// cellBudget caps the cells a fuzz input may ask for, so that neither loader
// allocates more than a few MiB per input.
const cellBudget = 1 << 21

// withinBudget bounds the cube data would load into: a dimension column of
// D distinct spellings has at most 16·D+64 ranks whichever domain it gets.
func withinBudget(data, measure string) bool {
	cr := csv.NewReader(strings.NewReader(data))
	header, err := cr.Read()
	if err != nil {
		return true
	}
	header = slices.Clone(header)
	distinct := make([]map[string]bool, len(header))
	for i := range distinct {
		distinct[i] = map[string]bool{}
	}
	for {
		rec, err := cr.Read()
		if err != nil {
			break
		}
		for i, v := range rec {
			distinct[i][v] = true
		}
	}
	measureIdx := slices.Index(header, measure)
	cells := 1.0
	for i, d := range distinct {
		if i != measureIdx {
			cells *= float64(16*len(d) + 64)
		}
	}
	return cells <= cellBudget
}

// referenceOutcome runs inferCSVReference, turning a panic into a value.
func referenceOutcome(data, measure string) (c *Cube, n int, err error, panicked any) {
	defer func() { panicked = recover() }()
	c, n, err = inferCSVReference(strings.NewReader(data), measure)
	return c, n, err, nil
}

// chunkLens are the chunk sizes matchReference loads at: the default, and
// sizes that cut a small input into a chunk of one line or a few each.
var chunkLens = []int{chunkLen, 1, 7}

// matchReference fails t unless InferCSV, at each of chunkLens, gives what
// inferCSVReference gives: the same error text, or the same record count,
// dimensions (name, kind, size, every value) and cells. Where the reference
// panics, InferCSV must return an error or a cube holding every record's
// measure.
func matchReference(t *testing.T, data, measure string) {
	t.Helper()
	want, wantN, wantErr, panicked := referenceOutcome(data, measure)
	for _, size := range chunkLens {
		withChunkLen(size, func() {
			t.Logf("chunks of %d bytes", size) // shown with a failure that follows
			got, n, err := InferCSV(strings.NewReader(data), measure)
			if panicked != nil {
				if err == nil && naive.SumInt64(got.Data(), got.Data().Bounds(), nil) != measureTotal(data, measure) {
					t.Fatalf("reference panicked (%v); InferCSV returned a cube that lost measures", panicked)
				}
				return
			}
			if wantErr != nil || err != nil {
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("error %v, reference %v", err, wantErr)
				}
				return
			}
			if n != wantN || got.Dims() != want.Dims() {
				t.Fatalf("%d records over %d dims, reference %d over %d", n, got.Dims(), wantN, want.Dims())
			}
			for k := range want.dims {
				g, w := got.Dimension(k), want.Dimension(k)
				if g.Name() != w.Name() || (g.index == nil) != (w.index == nil) || g.Size() != w.Size() {
					t.Fatalf("dim %d: %q int=%v size %d, reference %q int=%v size %d",
						k, g.Name(), g.index == nil, g.Size(), w.Name(), w.index == nil, w.Size())
				}
				for r := 0; r < w.Size(); r++ {
					if g.ValueAt(r) != w.ValueAt(r) {
						t.Fatalf("dim %q rank %d: %q, reference %q", w.Name(), r, g.ValueAt(r), w.ValueAt(r))
					}
				}
			}
			if !slices.Equal(got.Data().Data(), want.Data().Data()) {
				t.Fatal("cells differ from the reference's")
			}
		})
	}
}

// measureTotal sums the measure column of a CSV that loaded.
func measureTotal(data, measure string) int64 {
	recs, _ := csv.NewReader(strings.NewReader(data)).ReadAll()
	i := slices.Index(recs[0], measure)
	var total int64
	for _, rec := range recs[1:] {
		m, _ := strconv.ParseInt(rec[i], 10, 64)
		total += m
	}
	return total
}

// TestInferCSVRejectsShapeTooLarge: 65,536 records with the value i in every
// column infer three dense dimensions of 65,536 ranks, 2^48 cells. The
// loader used to panic in ndarray.New (and cubeserver -data with it); it
// returns an error that names the shape.
func TestInferCSVRejectsShapeTooLarge(t *testing.T) {
	var b strings.Builder
	b.WriteString("a,b,c,revenue\n")
	for i := 0; i < 1<<16; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,%d\n", i, i, i, i)
	}
	_, _, err := InferCSV(strings.NewReader(b.String()), "revenue")
	if err == nil || !strings.Contains(err.Error(), "[65536 65536 65536]") {
		t.Fatalf("InferCSV = %v, want an error naming the shape [65536 65536 65536]", err)
	}
}

// TestInferCSVRefusesCellOverflow: two records on one cell whose measures
// sum past int64 used to wrap the cell silently; the load is refused and the
// error names the second record.
func TestInferCSVRefusesCellOverflow(t *testing.T) {
	half := strconv.FormatInt(math.MaxInt64/2+1, 10)
	data := "region,revenue\nwest," + half + "\neast,1\nwest," + half + "\n"
	_, _, err := InferCSV(strings.NewReader(data), "revenue")
	if err == nil || !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("InferCSV = %v, want an error naming record 3", err)
	}
	matchReference(t, data, "revenue")
	// The same records without the overflow load, the negative side too.
	for _, ok := range []string{"region,revenue\nwest," + half + "\nwest,-" + half + "\n", "region,revenue\nwest,-" + half + "\nwest,-" + half + "\n"} {
		if _, _, err := InferCSV(strings.NewReader(ok), "revenue"); err != nil {
			t.Fatalf("InferCSV(%q) = %v", ok, err)
		}
		matchReference(t, ok, "revenue")
	}
}

func TestInferCSVMatchesReference(t *testing.T) {
	for _, tc := range inferCSVCorpus {
		t.Run(tc.name, func(t *testing.T) { matchReference(t, tc.data, tc.measure) })
	}
}

func FuzzInferCSV(f *testing.F) {
	for _, tc := range inferCSVCorpus {
		f.Add(tc.data, tc.measure)
	}
	f.Fuzz(func(t *testing.T, data, measure string) {
		if len(data) > 1<<17 || !withinBudget(data, measure) {
			t.Skip()
		}
		matchReference(t, data, measure)
	})
}

// The loader keeps no record and splits quote-free lines in place: what it
// allocates is per load (its buffer, its first blocks), not per record.
func TestInferCSVAllocsPerRecord(t *testing.T) {
	const side = 64
	data := []byte(gridCSV(side))
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := InferCSV(bytes.NewReader(data), "revenue"); err != nil {
			t.Fatal(err)
		}
	})
	if perRecord := allocs / (side * side); perRecord > 0.05 {
		t.Fatalf("%.3f allocations per record (%.0f for %d records), want ≤ 0.05", perRecord, allocs, side*side)
	}
}

// BenchmarkInferCSV loads the 1024² grid bench/ boots its CSV workloads from.
func BenchmarkInferCSV(b *testing.B) {
	data := []byte(gridCSV(1024))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, err := InferCSV(bytes.NewReader(data), "revenue"); err != nil {
			b.Fatal(err)
		}
	}
}

// inferCSVReference is InferCSV as it was before the one-pass loader: it
// buffers every record as strings, profiles each column with a map of its
// spellings, then loads through Cube.Add. Tests compare against it.
func inferCSVReference(r io.Reader, measureCol string) (*Cube, int, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("cube: reading CSV header: %w", err)
	}
	header = append([]string(nil), header...)
	measureIdx := -1
	for i, h := range header {
		if h == measureCol {
			measureIdx = i
			break
		}
	}
	if measureIdx < 0 {
		return nil, 0, fmt.Errorf("cube: measure column %q not in header %v", measureCol, header)
	}
	if len(header) < 2 {
		return nil, 0, fmt.Errorf("cube: need at least one dimension column besides the measure")
	}

	// Pass 1: buffer rows and profile each dimension column.
	type profile struct {
		allInt   bool
		min, max int
		distinct map[string]bool
	}
	profiles := make([]*profile, len(header))
	for i := range profiles {
		if i != measureIdx {
			profiles[i] = &profile{allInt: true, distinct: make(map[string]bool)}
		}
	}
	var rows [][]string
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("cube: reading CSV: %w", err)
		}
		line++
		if len(rec) != len(header) {
			return nil, 0, fmt.Errorf("cube: line %d has %d fields, want %d", line, len(rec), len(header))
		}
		row := append([]string(nil), rec...)
		rows = append(rows, row)
		for i, p := range profiles {
			if p == nil {
				continue
			}
			v := row[i]
			if p.allInt {
				if n, err := strconv.Atoi(v); err == nil {
					if len(p.distinct) == 0 || n < p.min {
						p.min = n
					}
					if len(p.distinct) == 0 || n > p.max {
						p.max = n
					}
				} else {
					p.allInt = false
				}
			}
			p.distinct[v] = true
		}
	}
	if len(rows) == 0 {
		return nil, 0, fmt.Errorf("cube: no records")
	}

	// Build dimensions. Integer domains that would be enormously sparse
	// (range much larger than the distinct count) fall back to categorical
	// to keep the dense array sensible.
	dims := make([]*Dimension, 0, len(header)-1)
	dimCols := make([]int, 0, len(header)-1)
	for i, p := range profiles {
		if p == nil {
			continue
		}
		name := header[i]
		if p.allInt && p.max-p.min+1 <= 16*len(p.distinct)+64 {
			dims = append(dims, NewIntDimension(name, p.min, p.max))
		} else {
			values := make([]string, 0, len(p.distinct))
			for v := range p.distinct {
				values = append(values, v)
			}
			sort.Strings(values)
			dims = append(dims, NewCategoryDimension(name, values...))
		}
		dimCols = append(dimCols, i)
	}

	// Pass 2: load. A cell that sums past int64 fails the load, but only
	// once every measure has parsed, as InferCSV reports it.
	c := New(dims...)
	values := make([]any, len(dims))
	coords := make([]int, len(dims))
	var overflow error
	for rowIdx, row := range rows {
		measure, err := strconv.ParseInt(row[measureIdx], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("cube: record %d: measure %q is not an integer", rowIdx+1, row[measureIdx])
		}
		for k, col := range dimCols {
			if c.dims[k].index == nil {
				n, err := strconv.Atoi(row[col])
				if err != nil {
					return nil, 0, fmt.Errorf("cube: record %d: %q not an integer for %q", rowIdx+1, row[col], header[col])
				}
				values[k] = n
			} else {
				values[k] = row[col]
			}
		}
		for k, v := range values {
			if coords[k], err = c.dims[k].Rank(v); err != nil {
				return nil, 0, fmt.Errorf("cube: record %d: %w", rowIdx+1, err)
			}
		}
		if cell := c.data.At(coords...); overflow == nil && (cell+measure > cell) != (measure > 0) {
			overflow = fmt.Errorf("cube: record %d: measure %d takes its cell past the int64 range", rowIdx+1, measure)
		}
		if err := c.Add(measure, values...); err != nil {
			return nil, 0, fmt.Errorf("cube: record %d: %w", rowIdx+1, err)
		}
	}
	if overflow != nil {
		return nil, 0, overflow
	}
	return c, len(rows), nil
}

// A reader's error fails the load after any fault in the lines before it,
// the header's included, however the input is cut into chunks.
func TestInferCSVReadError(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct{ data, want string }{
		{"", "cube: reading CSV header: boom"},
		{"\na,", "cube: reading CSV header: boom"},
		{"a,m\n1,2\n3,", "cube: reading CSV: boom"},
		{"a,m\n1,x\n", "cube: reading CSV: boom"},
		{"a,m\n1,2,3\n4,5\n", "cube: reading CSV: record on line 2: wrong number of fields"},
		{"a,m\n1,2\n\"3\",4\n", "cube: reading CSV: boom"},
	}
	for _, size := range chunkLens {
		withChunkLen(size, func() {
			for _, tc := range cases {
				_, _, err := InferCSV(io.MultiReader(strings.NewReader(tc.data), iotest.ErrReader(boom)), "m")
				if fmt.Sprint(err) != tc.want {
					t.Errorf("chunks of %d bytes, %q then an error: %v, want %s", size, tc.data, err, tc.want)
				}
			}
		})
	}
}

// endless is an input whose records never end; n counts the bytes read.
type endless struct{ n int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = "4,5\n"[(e.n+i)%4]
	}
	e.n += len(p)
	return len(p), nil
}

// A fault ends the reading: the load fails without reading the rest.
func TestInferCSVStopsAtAFault(t *testing.T) {
	rest := &endless{}
	_, _, err := InferCSV(io.MultiReader(strings.NewReader("a,m\n1,2,3\n"), rest), "m")
	if want := "cube: reading CSV: record on line 2: wrong number of fields"; fmt.Sprint(err) != want {
		t.Fatalf("error %v, want %s", err, want)
	}
	if rest.n > 16*chunkLen {
		t.Fatalf("read %d bytes past the fault", rest.n)
	}
}
