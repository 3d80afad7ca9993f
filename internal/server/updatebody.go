package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"unicode/utf8"

	"rangecube/internal/wal"
)

// An /update body is {"updates":[{"coords":[…],"delta":…},…]}. updateBody
// decodes one by hand, straight into the batch that is logged, applied and
// queued for the shards, where reflection allocated per update and per
// coordinate. It accepts and refuses what encoding/json does decoding the body
// into
//
//	struct{ Updates []wal.Update `json:"updates"` }
//
// keys included: a key matches a field when bytes.EqualFold says so after
// unescaping, null leaves an int as it was and makes a slice nil, a key
// named twice decodes into what the first occurrence left, and a body nested
// past encoding/json's 10,000 levels is refused. The one difference is that
// anything but whitespace after the value is refused, where a json.Decoder
// stopped reading.
//
// encoding/json decodes an array into the slice already there, element by
// element, so a field an element does not name, or a null, keeps what an
// earlier occurrence of the key wrote at that index. elems and ints keep
// that history: elems[i] is the last update written at index i, and its
// coordinates sit in ints[off:off+hist], of which the first n are current.
type updateBody struct {
	buf   []byte
	i     int // the parse's position in buf
	depth int
	elems []updateElem
	ints  []int
	key   []byte // an escaped key, unescaped
}

type updateElem struct {
	delta        int64
	off, n, hist int
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

var (
	keyUpdates = []byte("updates")
	keyCoords  = []byte("coords")
	keyDelta   = []byte("delta")
)

// updateBodies recycles what reading and decoding a body needs. The batch a
// decode returns shares nothing with it, because the WAL record and the
// shards' sender queue keep the batch.
var updateBodies = sync.Pool{New: func() any { return new(updateBody) }}

// readUpdates reads and decodes an /update body of at most maxBodyBytes. On
// failure it has answered: 413 past the cap, else 400.
func (s *Server) readUpdates(w http.ResponseWriter, r *http.Request) ([]wal.Update, bool) {
	p := updateBodies.Get().(*updateBody)
	defer updateBodies.Put(p)
	buf := bytes.NewBuffer(p.buf[:0])
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	p.buf = buf.Bytes()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge, "update batch exceeds %d bytes", tooBig.Limit)
		} else {
			s.writeError(w, r, http.StatusBadRequest, "reading update batch: %v", err)
		}
		return nil, false
	}
	ups, err := p.decode()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "decoding update batch: %v", err)
		return nil, false
	}
	return ups, true
}

// decode parses p.buf into its batch. The coordinates of the whole batch
// share one slab.
func (p *updateBody) decode() ([]wal.Update, error) {
	p.i, p.depth, p.elems, p.ints = 0, 0, p.elems[:0], p.ints[:0]
	n := 0
	var err error
	if p.ws(); !p.null() {
		if p.peek() != '{' {
			return nil, p.fail("want an object")
		}
		_, err = p.each(func(key []byte, _ int) error {
			if !bytes.EqualFold(key, keyUpdates) {
				return p.skip()
			}
			var err error
			n, err = p.updates()
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	if p.ws(); p.i < len(p.buf) {
		return nil, p.fail("data after the batch")
	}
	coords := 0
	for _, e := range p.elems[:n] {
		coords += e.n
	}
	ups, slab := make([]wal.Update, n), make([]int, coords)
	for k, e := range p.elems[:n] {
		c := slab[:e.n:e.n]
		copy(c, p.ints[e.off:])
		slab = slab[e.n:]
		ups[k] = wal.Update{Coords: c, Delta: e.delta}
	}
	return ups, nil
}

// updates decodes the "updates" value into elems and returns its length.
func (p *updateBody) updates() (int, error) {
	if p.null() {
		p.elems = p.elems[:0]
		return 0, nil
	}
	if p.peek() != '[' {
		return 0, p.fail("updates: want an array")
	}
	n, err := p.each(func(_ []byte, i int) error {
		if i == len(p.elems) {
			p.elems = append(p.elems, updateElem{})
		}
		if p.null() {
			return nil
		}
		if p.peek() != '{' {
			return p.fail("an update: want an object")
		}
		_, err := p.each(func(key []byte, _ int) error { return p.field(&p.elems[i], key) })
		return err
	})
	if n == 0 {
		p.elems = p.elems[:0] // encoding/json makes a new empty slice
	}
	return n, err
}

// field decodes the value of an update's member key into e.
func (p *updateBody) field(e *updateElem, key []byte) error {
	switch {
	case bytes.EqualFold(key, keyDelta):
		if p.null() {
			return nil
		}
		v, err := p.integer()
		if err == nil {
			e.delta = v
		}
		return err
	case !bytes.EqualFold(key, keyCoords):
		return p.skip()
	case p.null():
		e.n, e.hist = 0, 0
		return nil
	case p.peek() != '[':
		return p.fail("coords: want an array")
	}
	n, err := p.each(func(_ []byte, j int) error {
		if j == e.hist { // grow e's window, moving it to the end of ints
			if e.off+e.hist != len(p.ints) {
				p.ints = append(p.ints, p.ints[e.off:e.off+e.hist]...)
				e.off = len(p.ints) - e.hist
			}
			p.ints = append(p.ints, 0)
			e.hist++
		}
		if p.null() {
			return nil
		}
		v, err := p.integer()
		p.ints[e.off+j] = int(v)
		return err
	})
	if e.n = n; n == 0 {
		e.hist = 0
	}
	return err
}

// each steps over the object or array at p.i, handing visit each member's
// key (nil in an array) and index with p.i at its value, and returns how
// many members it held.
func (p *updateBody) each(visit func(key []byte, i int) error) (int, error) {
	end := byte('}')
	if p.peek() == '[' {
		end = ']'
	}
	p.i++
	if p.depth++; p.depth > maxDepth {
		return 0, p.fail("nested past %d levels", maxDepth)
	}
	n := 0
	if p.ws(); p.peek() != end {
		for ; ; n++ {
			var key []byte
			if end == '}' {
				var err error
				if key, err = p.readKey(); err != nil {
					return n, err
				}
				if p.ws(); p.peek() != ':' {
					return n, p.fail("want ':'")
				}
				p.i++
				p.ws()
			}
			if err := visit(key, n); err != nil {
				return n, err
			}
			if p.ws(); p.peek() != ',' {
				break
			}
			p.i++
			p.ws()
		}
		n++
	}
	if p.peek() != end {
		return n, p.fail("want ',' or %q", end)
	}
	p.i++
	p.depth--
	return n, nil
}

// skip checks and steps over a value no field takes.
func (p *updateBody) skip() error {
	var err error
	switch c := p.peek(); {
	case c == '{' || c == '[':
		_, err = p.each(func([]byte, int) error { return p.skip() })
	case c == '"':
		_, err = p.str()
	case c == '-' || '0' <= c && c <= '9':
		_, _, err = p.number()
	case !p.null() && !p.literal("true") && !p.literal("false"):
		err = p.fail("want a value")
	}
	return err
}

// readKey steps over a key and returns it unescaped. Field names hold only
// letters, so an escape other than \u is kept as a byte no name holds, and
// a \u escape of a UTF-16 surrogate, whose rune folds to no ASCII letter,
// as U+FFFD.
func (p *updateBody) readKey() ([]byte, error) {
	if p.peek() != '"' {
		return nil, p.fail("want a key")
	}
	start := p.i + 1
	escaped, err := p.str()
	if err != nil {
		return nil, err
	}
	raw, key := p.buf[start:p.i-1], p.key[:0]
	if !escaped {
		return raw, nil
	}
	for k := 0; k < len(raw); k++ {
		switch {
		case raw[k] != '\\':
			key = append(key, raw[k])
		case raw[k+1] != 'u':
			key = append(key, 0)
			k++
		default:
			r := rune(0)
			for _, h := range raw[k+2 : k+6] {
				r = r<<4 | rune(unhex(h))
			}
			if 0xD800 <= r && r < 0xE000 {
				r = utf8.RuneError
			}
			key = utf8.AppendRune(key, r)
			k += 5
		}
	}
	p.key = key
	return key, nil
}

// str steps over a string and reports whether it holds an escape.
func (p *updateBody) str() (escaped bool, err error) {
	for p.i++; p.i < len(p.buf); p.i++ {
		switch c := p.buf[p.i]; {
		case c == '"':
			p.i++
			return escaped, nil
		case c < 0x20:
			return escaped, p.fail("control character in a string")
		case c != '\\':
		case p.i+1 < len(p.buf) && strings.IndexByte(`"\/bfnrt`, p.buf[p.i+1]) >= 0:
			escaped = true
			p.i++
		case p.i+5 < len(p.buf) && p.buf[p.i+1] == 'u' &&
			unhex(p.buf[p.i+2])|unhex(p.buf[p.i+3])|unhex(p.buf[p.i+4])|unhex(p.buf[p.i+5]) >= 0:
			escaped = true
			p.i += 5
		default:
			return escaped, p.fail("bad escape")
		}
	}
	return escaped, p.fail("unterminated string")
}

// unhex is the value of hex digit c, −1 for any other byte.
func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return int(c - 'A' + 10)
	}
	return -1
}

// integer decodes a number that must be an integer fitting in int64, as a
// coordinate or a delta must: 1.0, 1e0 and 2^63 are numbers, and refused.
func (p *updateBody) integer() (int64, error) {
	start := p.i
	v, ok, err := p.number()
	if err == nil && !ok {
		err = fmt.Errorf("number %s is not an int64", p.buf[start:p.i])
	}
	return v, err
}

// number steps over a number and returns its value, ok when it is an
// integer literal in int64's range.
func (p *updateBody) number() (v int64, ok bool, err error) {
	neg := p.peek() == '-'
	if neg {
		p.i++
	}
	var u uint64
	over := false
	switch c := p.peek(); {
	case c == '0':
		p.i++
	case '1' <= c && c <= '9':
		for ; p.i < len(p.buf) && '0' <= p.buf[p.i] && p.buf[p.i] <= '9'; p.i++ {
			d := uint64(p.buf[p.i] - '0')
			over = over || u > (math.MaxUint64-d)/10
			u = u*10 + d
		}
	default:
		return 0, false, p.fail("want a digit")
	}
	ok = !over && (u <= math.MaxInt64 || neg && u == 1<<63)
	if p.peek() == '.' {
		p.i++
		if !p.digits() {
			return 0, false, p.fail("want a digit after '.'")
		}
		ok = false
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		if p.i++; p.peek() == '+' || p.peek() == '-' {
			p.i++
		}
		if !p.digits() {
			return 0, false, p.fail("want an exponent")
		}
		ok = false
	}
	if v = int64(u); neg {
		v = -v
	}
	return v, ok, nil
}

// digits steps over one or more digits.
func (p *updateBody) digits() bool {
	start := p.i
	for p.i < len(p.buf) && '0' <= p.buf[p.i] && p.buf[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// null steps over a null and reports whether there was one.
func (p *updateBody) null() bool { return p.literal("null") }

// literal steps over word and reports whether it was there.
func (p *updateBody) literal(word string) bool {
	if len(p.buf)-p.i < len(word) || string(p.buf[p.i:p.i+len(word)]) != word {
		return false
	}
	p.i += len(word)
	return true
}

// ws steps over JSON whitespace.
func (p *updateBody) ws() {
	for ; p.i < len(p.buf); p.i++ {
		switch p.buf[p.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// peek returns the byte at p.i, 0 at the end.
func (p *updateBody) peek() byte {
	if p.i < len(p.buf) {
		return p.buf[p.i]
	}
	return 0
}

func (p *updateBody) fail(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", p.i, fmt.Sprintf(format, args...))
}
