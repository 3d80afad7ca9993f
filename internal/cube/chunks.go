package cube

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// chunkLen is the size of the chunks InferCSV reads and parses on the
// workers; tests shrink it to load small inputs across many chunks. At
// 1 MiB the buffers alone raised a 1024² boot's peak RSS by 5–9%.
var chunkLen = 256 << 10

// source cuts the input into chunks of whole lines, in input order, and
// registers a part for each. It reads CSV as encoding/csv's default Reader
// does: "\r\n" ends a line as "\n" does, a '\r' before EOF is dropped, blank
// lines are skipped, and each record is as wide as the header. From the
// first chunk that holds a '"', a csv.Reader parses the rest of the input,
// its line numbers offset by the lines before, as if read alone.
type source struct {
	r    io.Reader
	size int // the chunk size

	mu    sync.Mutex // guards what follows once the workers start
	carry []byte     // the partial line after the last chunk
	err   error      // what ended the input, io.EOF or the reader's error
	done  bool       // no chunk follows: the input ended, a chunk held '"' or a part failed
	lines int        // the lines before the first part, the header's included
	parts []*part
}

// read returns the next chunk, read into buf: at least size bytes of whole
// lines where the input has them, ending in '\n' (appended where the input
// ends without one). It reports whether the chunk holds a '"': then the
// chunk is all it read, and the rest of the input is left to the chunk's
// csv.Reader. The chunk is empty once the source is done.
func (s *source) read(buf []byte) (chunk []byte, quoted bool) {
	if s.done {
		return nil, false
	}
	buf = append(buf[:0], s.carry...)
	for ended, empty := false, 0; s.err == nil && (len(buf) < s.size || !ended); {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(cap(buf), 4<<10), s.size)) // a small input takes a small buffer
		}
		end := cap(buf)
		if len(buf) < s.size {
			end = min(end, s.size)
		}
		n, err := s.r.Read(buf[len(buf):end])
		ended = ended || bytes.IndexByte(buf[len(buf):len(buf)+n], '\n') >= 0
		buf = buf[:len(buf)+n]
		if n > 0 {
			empty = 0
		} else if empty++; empty == 100 && err == nil {
			err = io.ErrNoProgress // as bufio.Reader gives up
		}
		s.err = err
	}
	quoted = bytes.IndexByte(buf, '"') >= 0
	s.done = s.err != nil || quoted
	cut := len(buf)
	if !quoted && s.err != io.EOF {
		cut = bytes.LastIndexByte(buf, '\n') + 1 // a read error drops the line it cut
	}
	s.carry = append(s.carry[:0], buf[cut:]...)
	if !quoted && cut > 0 && buf[cut-1] != '\n' {
		buf = append(buf[:cut], '\n') // as the input's end ends its last line
		cut++
	}
	return buf[:cut], quoted
}

// header returns the first non-blank line of a quote-free chunk split on
// ',' and the bytes after it, counting the lines it passes; nil if the
// chunk has none.
func (s *source) header(chunk []byte) ([]string, []byte) {
	for len(chunk) > 0 {
		s.lines++
		i := bytes.IndexByte(chunk, '\n')
		line := bytes.TrimSuffix(chunk[:i], []byte{'\r'})
		if chunk = chunk[i+1:]; len(line) > 0 {
			return strings.Split(string(line), ","), chunk
		}
	}
	return nil, nil
}

// add registers the next part in input order.
func (s *source) add(quoted bool) *part {
	p := &part{quoted: quoted}
	s.parts = append(s.parts, p)
	return p
}

// next reads the next chunk into buf and registers its part; nil once the
// source is done.
func (s *source) next(buf []byte) (*part, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	chunk, quoted := s.read(buf)
	if len(chunk) == 0 {
		return nil, nil
	}
	return s.add(quoted), chunk
}

// parse loads chunk into p, if p is not nil, then each next chunk, read into
// buf, into its part, until the source is done. It is one worker's loop.
func (s *source) parse(l *layout, p *part, chunk, buf []byte) {
	if p == nil {
		p, chunk = s.next(buf)
		buf = chunk[:0]
	}
	for p != nil {
		if p.quoted {
			cr := s.csv(chunk)
			cr.FieldsPerRecord = len(l.cols)
			p.scanQuoted(cr, l)
		} else {
			p.scan(chunk, l)
		}
		if p.err != nil {
			s.mu.Lock()
			s.done = true
			s.mu.Unlock()
		}
		p, chunk = s.next(buf)
		buf = chunk[:0]
	}
}

// csv returns a csv.Reader of chunk and then of the rest of the input.
func (s *source) csv(chunk []byte) *csv.Reader {
	rest := s.r
	if s.err != nil {
		rest = errReader{s.err} // an ended reader is not read again
	}
	return csv.NewReader(io.MultiReader(bytes.NewReader(chunk), rest))
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// offset moves a csv.ParseError's line numbers past the lines before the
// reader's input.
func offset(err error, lines int) error {
	if pe, ok := err.(*csv.ParseError); ok {
		pe.StartLine, pe.Line = pe.StartLine+lines, pe.Line+lines
	}
	return err
}

// part is what one chunk loads to: its columns and measures, its record and
// line counts, and its first faults, numbered from the chunk's start.
type part struct {
	quoted   bool // the chunk holds a '"': a csv.Reader reads it and the rest of the input
	cols     []column
	measures []int64
	n, lines int
	err      error  // the first fault of reading: a record of the wrong width, or the csv.Reader's
	bad      int    // the first record whose measure is not an integer; 0 if none
	badText  string // its measure
}

func (p *part) init(l *layout, records int) {
	p.cols = make([]column, len(l.names))
	for k := range p.cols {
		p.cols[k] = column{vals: make([]int, 0, records), allInt: true, min: math.MaxInt, max: math.MinInt}
	}
	p.measures = make([]int64, 0, records)
}

// intDigits is the most digits of an int field that parseInt's loop parses.
const intDigits = strconv.IntSize * 9 / 32

// scan loads the records of a quote-free chunk that ends in '\n', splitting
// each field and parsing it in the same pass. A plain field, an optional '-'
// and up to 18 digits (intDigits for a dimension), is parsed here; any other
// goes to parseInt or column.add.
func (p *part) scan(b []byte, l *layout) {
	p.init(l, bytes.Count(b, []byte{'\n'}))
	cols, width := p.cols, len(l.cols)
	n, lines := 0, 0
	for i := 0; i < len(b); {
		lines++
		if b[i] == '\n' {
			i++
			continue
		}
		if b[i] == '\r' && b[i+1] == '\n' {
			i += 2
			continue
		}
		n++
		for f := 0; ; f++ {
			start := i
			neg := b[i] == '-'
			if neg {
				i++
			}
			digits := i
			var v int64
			for ; b[i]-'0' <= 9; i++ {
				v = v*10 + int64(b[i]-'0')
			}
			num := i
			for b[i] != ',' && b[i] != '\n' {
				i++
			}
			end, last := i, b[i] == '\n'
			if last && end > start && b[end-1] == '\r' {
				end--
			}
			i++
			if f == width || last && f != width-1 {
				p.err = &csv.ParseError{StartLine: lines, Line: lines, Column: 1, Err: csv.ErrFieldCount}
				return
			}
			nd := num - digits
			plain := num == end && nd > 0
			if neg {
				v = -v
			}
			if k := l.cols[f]; k < 0 {
				if plain && nd <= 18 {
					p.measures = append(p.measures, v)
				} else {
					p.measure(b[start:end], n)
				}
			} else if c := &cols[k]; c.dict == nil && plain && nd <= intDigits && (b[digits] != '0' || nd == 1 && !neg) {
				c.min, c.max = min(c.min, int(v)), max(c.max, int(v))
				c.vals = append(c.vals, int(v))
			} else {
				c.add(b[start:end])
			}
			if last {
				break
			}
		}
	}
	p.n, p.lines = n, lines
}

// scanQuoted loads the records cr reads.
func (p *part) scanQuoted(cr *csv.Reader, l *layout) {
	p.init(l, 0)
	cr.ReuseRecord = true
	var buf []byte
	for {
		rec, err := cr.Read()
		if err != nil {
			if err != io.EOF {
				p.err = err
			}
			return
		}
		p.n++
		for f, s := range rec {
			buf = append(buf[:0], s...)
			if k := l.cols[f]; k < 0 {
				p.measure(buf, p.n)
			} else {
				p.cols[k].add(buf)
			}
		}
	}
}

// measure adds record n's measure, spelled s, as parseInt reads it.
func (p *part) measure(s []byte, n int) {
	v, err := parseInt(s, 64)
	if err != nil && p.bad == 0 {
		p.bad, p.badText = n, string(s)
	}
	p.measures = append(p.measures, v)
}
