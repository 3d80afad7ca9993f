package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"rangecube/internal/cube"
)

// queryAnswer is one query's response as appendAnswer writes it: the fields of
// the JSON object /query answers with, in order, the §11 bounds held by
// value and an extreme's cell as its ranks.
//
//	{"op":…,"value":…,"average":…,"at":["dim=value",…],"empty":true,
//	 "lower_bound":…,"upper_bound":…,"volume":…,"accesses":…,
//	 "partial":true,"missing_shards":[…],"unbounded":true}
//
// average, at, empty, partial, missing_shards and unbounded are left out
// when zero, and the bounds unless bounded: op=sum reports them, and 0 is a
// legitimate bound.
type queryAnswer struct {
	op      string
	value   int64
	average float64
	at      []int // an extreme's ranks, one per dimension; nil for none
	empty   bool
	bounded bool
	lo, hi  int64
	volume  int
	// accesses is the paper's cost proxy for answering this query.
	accesses int64
	// partial marks a sum answered with one or more remote shards
	// unreachable: value is the exact sum over the reachable slabs only,
	// while the §11 [lo, hi] bounds still contain the true answer — each
	// missing slab contributes volume × its conservative cell-value bounds.
	// missing lists the absent shard indices.
	partial bool
	missing []int
	// unbounded marks bounds that passed an int64 limit: they are the whole
	// of int64 and need not contain an answer outside it.
	unbounded bool
}

// appendAnswer appends a as a JSON object, byte for byte what encoding/json
// wrote for the struct the answer was before it was encoded by hand. An
// extreme's cell is rendered from its ranks through c's dimensions.
func appendAnswer(dst []byte, a *queryAnswer, c *cube.Cube) []byte {
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, a.op)
	dst = append(dst, `,"value":`...)
	dst = strconv.AppendInt(dst, a.value, 10)
	if a.average != 0 {
		dst = append(dst, `,"average":`...)
		dst = appendFloat(dst, a.average)
	}
	if len(a.at) > 0 {
		dst = append(dst, `,"at":[`...)
		for j, rank := range a.at {
			if j > 0 {
				dst = append(dst, ',')
			}
			d := c.Dimension(j)
			dst = append(dst, '"')
			dst = appendEscaped(dst, d.Name())
			dst = append(dst, '=')
			// The value is appended as it is and escaped in place when it
			// must be, which only a categorical value can need.
			start := len(dst)
			dst = d.AppendValue(dst, rank)
			if !jsonSafe(dst[start:]) {
				dst = appendEscaped(dst[:start], string(dst[start:]))
			}
			dst = append(dst, '"')
		}
		dst = append(dst, ']')
	}
	if a.empty {
		dst = append(dst, `,"empty":true`...)
	}
	if a.bounded {
		dst = append(dst, `,"lower_bound":`...)
		dst = strconv.AppendInt(dst, a.lo, 10)
		dst = append(dst, `,"upper_bound":`...)
		dst = strconv.AppendInt(dst, a.hi, 10)
	}
	dst = append(dst, `,"volume":`...)
	dst = strconv.AppendInt(dst, int64(a.volume), 10)
	dst = append(dst, `,"accesses":`...)
	dst = strconv.AppendInt(dst, a.accesses, 10)
	if a.partial {
		dst = append(dst, `,"partial":true`...)
	}
	if len(a.missing) > 0 {
		dst = append(dst, `,"missing_shards":[`...)
		for k, i := range a.missing {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(i), 10)
		}
		dst = append(dst, ']')
	}
	if a.unbounded {
		dst = append(dst, `,"unbounded":true`...)
	}
	return append(dst, '}')
}

// appendBatch appends the /query/batch response for slots:
// {"count":n,"results":[…]}, each result {"result":{…}} or {"error":"…"}.
func appendBatch(dst []byte, slots []batchSlot, c *cube.Cube) []byte {
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, int64(len(slots)), 10)
	dst = append(dst, `,"results":[`...)
	for i := range slots {
		if i > 0 {
			dst = append(dst, ',')
		}
		if q := &slots[i]; q.err != "" {
			dst = append(dst, `{"error":`...)
			dst = appendString(dst, q.err)
		} else {
			dst = append(dst, `{"result":`...)
			dst = appendAnswer(dst, &q.ans, c)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendFloat appends f as encoding/json writes a float64: like %g, but
// with the exponent cutoffs of ES6 number-to-string conversion and the
// exponent unpadded. f must be finite.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst
}

// appendString appends s as a JSON string as encoding/json writes one with
// HTML escaping on (the json.Encoder default).
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, s)
	return append(dst, '"')
}

// appendEscaped appends the inside of appendString's quotes: '"' and '\\'
// escaped, \b \f \n \r \t short, other control bytes and <, > and & as
// \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid
// UTF-8 as \ufffd.
func appendEscaped(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// htmlSafe reports whether ASCII byte b stands for itself in a JSON string
// written with HTML escaping.
func htmlSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// jsonSafe reports whether appendEscaped would copy b unchanged.
func jsonSafe(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf || !htmlSafe(c) {
			return false
		}
	}
	return true
}

// encodeBufs recycles the buffers answers are encoded into; a response is
// written out of one before it goes back.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeEncoded answers with status and the JSON document encode appends,
// followed by a newline as json.Encoder ends one, under its Content-Length.
func (s *Server) writeEncoded(w http.ResponseWriter, status int, encode func([]byte) []byte) {
	bufP := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bufP)
	body := append(encode((*bufP)[:0]), '\n')
	*bufP = body
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) // a client that hung up cannot be answered
}
