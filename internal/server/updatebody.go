package server

import (
	"bytes"
	"errors"
	"net/http"
	"sync"

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
	scanner
	elems []updateElem
	ints  []int
}

type updateElem struct {
	delta        int64
	off, n, hist int
}

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
	body, ok := s.readRequest(w, r, p.buf, "update batch")
	if p.buf = body; !ok {
		return nil, false
	}
	ups, err := p.decode()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "decoding update batch: %v", err)
		return nil, false
	}
	return ups, true
}

// readRequest reads a client's request body, the what of the errors, of at
// most maxBodyBytes into buf's array, growing it as needed. On failure it
// has answered: 413 past the cap, else 400.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, buf []byte, what string) ([]byte, bool) {
	b := bytes.NewBuffer(buf[:0])
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, tooBig.Limit)
		} else {
			s.writeError(w, r, http.StatusBadRequest, "reading %s: %v", what, err)
		}
	}
	return b.Bytes(), err == nil
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
