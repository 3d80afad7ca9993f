package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"rangecube/internal/cube"
	"rangecube/internal/wal"
)

// updateRequest is what /update bodies were decoded into by encoding/json:
// the reference updateBody is held to.
type updateRequest struct {
	Updates []wal.Update `json:"updates"`
}

// updateBodySeeds are the cases the hand decoder must decide as
// encoding/json does: folded and escaped keys, null, keys named twice
// (decoding into what the first left), numbers that are not int64s, nesting
// at and past the limit, and whitespace everywhere.
var updateBodySeeds = []string{
	`{"updates":[{"coords":[1,1],"delta":5}]}`,
	`{"updates":[{"coords":[1,2,3],"delta":-5},{"coords":[0],"delta":0},{"coords":[],"delta":9}]}`,
	" \t\r\n{ \"updates\" : [ { \"coords\" : [ 1 , 2 ] , \"delta\" : 3 } , { \"delta\" : 4 , \"coords\" : [ 0 , 0 ] } ] } \n",
	`{"UPDATES":[{"Coords":[1,1],"DELTA":5}]}`,
	`{"updateſ":[{"coordſ":[1,1],"delta":5}]}`,
	`{"update\u017f":[{"co\u006frds":[1,1],"d\u0065lta":5}]}`,
	`{"updates":[{"coords":[1,1],"delta":5}]}`,
	`{"updates\ud800":[{"coords":[1,1],"delta":5}]}`,
	`{"updates\\":[],"\"":1,"x\/\b\f\n\r\t":2}`,
	`null`,
	`{"updates":null}`,
	`{"updates":[null,{"coords":null,"delta":null}]}`,
	`{"updates":[{"coords":[null,2],"delta":5}]}`,
	`{"updates":[{"coords":[1,1],"delta":5}],"updates":[{"coords":[2]}]}`,
	`{"updates":[{"coords":[1,2,3],"delta":5}],"updates":[{"coords":[null,null,null,null],"delta":null},null]}`,
	`{"updates":[{"coords":[1,2],"delta":5},{"coords":[3,4]}],"updates":[],"updates":[{}]}`,
	`{"updates":[{"coords":[1,2],"coords":[7],"delta":1,"delta":2}]}`,
	`{"updates":[{"coords":[1],"delta":1},{"coords":[2,3]}],"updates":[{"coords":[null,9,9]}]}`,
	`{"updates":[{"coords":[1,1],"delta":5,"note":{"a":[true,false,null,-1.5e+3,"s"]}}],"other":[[[]]]}`,
	`{"updates":[{"coords":[01],"delta":5}]}`,
	`{"updates":[{"coords":[1.0],"delta":5}]}`,
	`{"updates":[{"coords":[1e0],"delta":5}]}`,
	`{"updates":[{"coords":[-0],"delta":-9223372036854775808}]}`,
	`{"updates":[{"coords":[1],"delta":9223372036854775808}]}`,
	`{"updates":[{"coords":[1],"delta":-9223372036854775809}]}`,
	`{"updates":[{"coords":[1],"delta":99999999999999999999999}]}`,
	`{"updates":[{"coords":["1"],"delta":5}]}`,
	`{"updates":[{"coords":[1],"delta":true}]}`,
	`{"updates":{"coords":[1]}}`,
	`{"updates":[[1]]}`,
	`[{"updates":[]}]`,
	`{"updates":[{"coords":[1,1],"delta":5}]}{"updates":[{"coords":[2,2],"delta":7}]}`,
	`{"updates":[{"coords":[1,1],"delta":5}]} x`,
	`{"updates":[{"coords":[1,1],"delta":5},]}`,
	`{"updates":[{"coords":[1,1],"delta":5}`,
	`{"updates":[{"coords":[1,1],"delta":"5"}]}`,
	"{\"upd\x01ates\":[]}",
	"{\"x\":\"\xff\xfe\"}",
	`{"updates":[{"coords":[1,1],"delta":5}],"x":"\u12"}`,
	``,
	` `,
	`{`,
	`{"updates":[{"coords":[1,1],"delta":-}]}`,
	`{"updates":[{"coords":[1,1],"delta":1.}]}`,
	`{"updates":[{"coords":[1,1],"delta":1e}]}`,
	`{"updates":[{"coords":[1,1],"delta":nul}]}`,
	`{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
}

// FuzzUpdateBody holds the hand decoder to encoding/json: on every input
// both refuse, or both return the same updates. The one exception is data
// after the value, which a json.Decoder leaves unread and updateBody
// refuses.
func FuzzUpdateBody(f *testing.F) {
	for _, s := range updateBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want updateRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		werr := dec.Decode(&want)
		trailing := werr == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
		got, gerr := (&updateBody{scanner: scanner{buf: body}}).decode()
		switch {
		case werr != nil || trailing:
			if gerr == nil {
				t.Fatalf("%q: decoded %v; encoding/json refused it (%v) or left data after it", body, got, werr)
			}
		case gerr != nil:
			t.Fatalf("%q: refused (%v); encoding/json decoded %v", body, gerr, want.Updates)
		case !slices.EqualFunc(got, want.Updates, func(x, y wal.Update) bool {
			return x.Delta == y.Delta && slices.Equal(x.Coords, y.Coords)
		}):
			t.Fatalf("%q: decoded %v, encoding/json %v", body, got, want.Updates)
		}
	})
}

// TestUpdateBodyDecodesIntoOneSlab: a decoded batch's coordinates share one
// array, each capped at its own length, and the pooled decoder keeps no
// reference into what it returns.
func TestUpdateBodyDecodesIntoOneSlab(t *testing.T) {
	p := &updateBody{scanner: scanner{buf: []byte(`{"updates":[{"coords":[1,2],"delta":3},{"coords":[4,5],"delta":6},{"coords":[7,8],"delta":9}]}`)}}
	ups, err := p.decode()
	if err != nil || len(ups) != 3 {
		t.Fatalf("decoded %v, err %v", ups, err)
	}
	for k := range ups[:2] {
		end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(ups[k].Coords)), 2*unsafe.Sizeof(0))
		if cap(ups[k].Coords) != 2 || end != unsafe.Pointer(unsafe.SliceData(ups[k+1].Coords)) {
			t.Fatalf("update %d's coordinates (cap %d) do not end where update %d's begin", k, cap(ups[k].Coords), k+1)
		}
	}
	p.buf = []byte(`{"updates":[{"coords":[0,0],"delta":0},{"coords":[0,0],"delta":0},{"coords":[0,0],"delta":0}]}`)
	if _, err := p.decode(); err != nil {
		t.Fatal(err)
	}
	if ups[2].Coords[1] != 8 || ups[2].Delta != 9 {
		t.Fatalf("a second decode rewrote the first's batch: %v", ups)
	}
}

// TestBodiesRefuseTrailingData: /update and /query/batch answer 400 when
// anything but whitespace follows the body's JSON value, and apply nothing.
// Both used to decode the first value and drop the rest: the update below
// answered 200 "applied":1 and left cell (2,2) at 0.
func TestBodiesRefuseTrailingData(t *testing.T) {
	c := cube.New(cube.NewIntDimension("x", 0, 3), cube.NewIntDimension("y", 0, 3))
	s := New(c, 1, 2)
	defer s.Close()
	h := s.Handler()
	post := func(target, body string) int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
		return w.Code
	}
	for _, tc := range []struct{ target, body string }{
		{"/update", `{"updates":[{"coords":[1,1],"delta":5}]}{"updates":[{"coords":[2,2],"delta":7}]}`},
		{"/update", `{"updates":[{"coords":[1,1],"delta":5}]} x`},
		{"/query/batch", `[{"op":"sum","select":{"x":"0..3"}}] [garbage`},
		{"/query/batch", `[{"op":"sum","select":{"x":"0..3"}}]]`},
	} {
		if code := post(tc.target, tc.body); code != http.StatusBadRequest {
			t.Errorf("POST %s %s answered %d, want 400", tc.target, tc.body, code)
		}
	}
	if s.Seq() != 0 || c.Data().At(1, 1) != 0 || c.Data().At(2, 2) != 0 {
		t.Fatalf("refused bodies moved seq to %d and cells to %d, %d", s.Seq(), c.Data().At(1, 1), c.Data().At(2, 2))
	}
	for _, tc := range []struct{ target, body string }{
		{"/update", "{\"updates\":[{\"coords\":[1,1],\"delta\":5}]} \n\t\r"},
		{"/query/batch", "[{\"op\":\"sum\",\"select\":{\"x\":\"0..3\"}}]\n"},
	} {
		if code := post(tc.target, tc.body); code != http.StatusOK {
			t.Errorf("POST %s %q answered %d, want 200", tc.target, tc.body, code)
		}
	}
}
