package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// scanner is the JSON reader the hand-written body decoders share
// (updateBody, batchBody): it steps through buf, checking the syntax of what
// it steps over as encoding/json's scanner does, and hands a decoder each
// member of an object or array with p.i at its value.
type scanner struct {
	buf   []byte
	i     int // the parse's position in buf
	depth int
	// key is where the token of the key each last handed a visit starts and
	// ends, and whether it is plain (quoted).
	key struct {
		start, end int
		plain      bool
	}
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// each steps over the object or array at p.i, handing visit each member's
// key (nil in an array) and index with p.i at its value, and returns how
// many members it held.
func (p *scanner) each(visit func(key []byte, i int) error) (int, error) {
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
func (p *scanner) skip() error {
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

// readKey steps over a key and returns it unquoted, a slice of buf when it
// is plain (quoted), and notes its token in p.key.
func (p *scanner) readKey() ([]byte, error) {
	if p.peek() != '"' {
		return nil, p.fail("want a key")
	}
	start, plain, err := p.quoted()
	p.key.start, p.key.end, p.key.plain = start, p.i, plain
	if err != nil {
		return nil, err
	}
	if plain {
		return p.buf[start+1 : p.i-1], nil
	}
	v, err := p.unquote(start)
	return []byte(v), err
}

// quoted steps over a string and reports where its token starts and whether
// the string is plain: ASCII with no escape, so its value is the bytes
// between its quotes.
func (p *scanner) quoted() (start int, plain bool, err error) {
	start = p.i
	escaped, err := p.str()
	return start, err == nil && !escaped && ascii(p.buf[start+1:p.i-1]), err
}

// unquote returns the value of the string token that starts at start and
// ends at p.i as encoding/json unquotes it, so that escapes, surrogates and
// invalid UTF-8 come out as they do there.
func (p *scanner) unquote(start int) (string, error) {
	var v string
	if err := json.Unmarshal(p.buf[start:p.i], &v); err != nil {
		return "", p.fail("%v", err)
	}
	return v, nil
}

// ascii reports whether b holds only ASCII bytes.
func ascii(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// str steps over a string and reports whether it holds an escape.
func (p *scanner) str() (escaped bool, err error) {
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
func (p *scanner) integer() (int64, error) {
	start := p.i
	v, ok, err := p.number()
	if err == nil && !ok {
		err = fmt.Errorf("number %s is not an int64", p.buf[start:p.i])
	}
	return v, err
}

// number steps over a number and returns its value, ok when it is an
// integer literal in int64's range.
func (p *scanner) number() (v int64, ok bool, err error) {
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
func (p *scanner) digits() bool {
	start := p.i
	for p.i < len(p.buf) && '0' <= p.buf[p.i] && p.buf[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// null steps over a null and reports whether there was one.
func (p *scanner) null() bool { return p.literal("null") }

// literal steps over word and reports whether it was there.
func (p *scanner) literal(word string) bool {
	if len(p.buf)-p.i < len(word) || string(p.buf[p.i:p.i+len(word)]) != word {
		return false
	}
	p.i += len(word)
	return true
}

// ws steps over JSON whitespace.
func (p *scanner) ws() {
	for ; p.i < len(p.buf); p.i++ {
		switch p.buf[p.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// peek returns the byte at p.i, 0 at the end.
func (p *scanner) peek() byte {
	if p.i < len(p.buf) {
		return p.buf[p.i]
	}
	return 0
}

func (p *scanner) fail(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", p.i, fmt.Sprintf(format, args...))
}
