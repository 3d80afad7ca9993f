package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"rangecube/internal/cube"
	"rangecube/internal/ndarray"
)

// The JSON shapes the handlers decoded and encoded through encoding/json
// before batchBody and appendAnswer: the references the hand codec is held
// to, and what tests decode answers into.

// queryResponse is the JSON shape of /query answers.
type queryResponse struct {
	Op        string   `json:"op"`
	Value     int64    `json:"value"`
	Average   float64  `json:"average,omitempty"`
	At        []string `json:"at,omitempty"`
	Empty     bool     `json:"empty,omitempty"`
	LowerBnd  *int64   `json:"lower_bound,omitempty"`
	UpperBnd  *int64   `json:"upper_bound,omitempty"`
	Volume    int      `json:"volume"`
	Accesses  int64    `json:"accesses"`
	Partial   bool     `json:"partial,omitempty"`
	Missing   []int    `json:"missing_shards,omitempty"`
	Unbounded bool     `json:"unbounded,omitempty"`
}

// batchQuery is one element of a POST /query/batch body.
type batchQuery struct {
	Op     string            `json:"op"`
	Select map[string]string `json:"select"`
}

// batchResult is one element of the /query/batch answer's results.
type batchResult struct {
	Result *queryResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// batchEnvelope is the /query/batch answer.
type batchEnvelope struct {
	Count   int           `json:"count"`
	Results []batchResult `json:"results"`
}

// responseOf is a in the reference shape, its cell rendered through c as
// name=value strings.
func responseOf(a *queryAnswer, c *cube.Cube) *queryResponse {
	q := &queryResponse{Op: a.op, Value: a.value, Average: a.average, Empty: a.empty,
		Volume: a.volume, Accesses: a.accesses, Partial: a.partial, Missing: a.missing, Unbounded: a.unbounded}
	if a.bounded {
		lo, hi := a.lo, a.hi
		q.LowerBnd, q.UpperBnd = &lo, &hi
	}
	if a.at != nil {
		q.At = make([]string, len(a.at))
		for j, rank := range a.at {
			d := c.Dimension(j)
			q.At[j] = d.Name() + "=" + d.ValueAt(rank)
		}
	}
	return q
}

// selectorFromSpec is the selector grammar as cube.Selectors: "lo..hi",
// "*", or a single value, each value an int when strconv.Atoi takes it.
func selectorFromSpec(name, spec string) cube.Selector {
	conv := func(s string) any {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
		return s
	}
	lo, hi, isRange := strings.Cut(spec, "..")
	switch {
	case isRange:
		return cube.Between(name, conv(lo), conv(hi))
	case spec == "*":
		return cube.All(name)
	default:
		return cube.Eq(name, conv(spec))
	}
}

// regionFromSpecs resolves a name→spec map, in map order, through
// cube.Region: the resolution the handlers had before selection.
func (s *Server) regionFromSpecs(specs map[string]string) (ndarray.Region, error) {
	sels := make([]cube.Selector, 0, len(specs))
	for name, spec := range specs {
		sels = append(sels, selectorFromSpec(name, spec))
	}
	return s.cube.Region(sels...)
}

// codecCube is the cube the codec tests resolve selectors over: two integer
// dimensions, one with negative values, and a categorical one whose name and
// values need JSON escapes.
func codecCube() *cube.Cube {
	return cube.New(
		cube.NewIntDimension("x", 0, 31),
		cube.NewIntDimension("y", -5, 20),
		cube.NewCategoryDimension("c<&>", "a", "<b>", "é", "q\"\\", "\u2028", "\x01", "\xff", ""),
	)
}

// queryBatchSeeds are bodies the hand decoder must decide as encoding/json
// does: folded, escaped and repeated keys, null at every level, selects that
// merge, unknown keys, values that are not strings, nesting at and past the
// limit, and whitespace everywhere.
var queryBatchSeeds = []string{
	`[{"op":"sum","select":{"x":"3..28","y":"-5..17"}}]`,
	`[{"op":"max","select":{"x":"*","c<&>":"<b>"}},{"op":"avg","select":{"y":"3"}},{"op":"count"},{}]`,
	" \t\r\n[ { \"op\" : \"min\" , \"select\" : { \"x\" : \"1..2\" } } ] \n",
	`[{"OP":"max","Select":{"x":"1"}},{"oP":"min","SELECT":null}]`,
	`[{"\u006fp":"avg","ſelect":{"x":"2"}}]`,
	`[{"op":"sum","op":"max","op":null}]`,
	`[{"op":"sum","select":{"x":"1"},"select":{"y":"2"},"select":{"x":"3..4"}}]`,
	`[{"select":{"x":"1"},"select":null,"select":{"y":"0"}}]`,
	`[{"select":{"x":"1","x":"2..3","x":null}}]`,
	`[{"select":{"zz":"1","yy":"2"}}]`,
	`[{"select":{"x":"40","zz":"1"}}]`,
	`[{"select":{"\u0078":"1","c\u003c\u0026\u003e":"\u00e9","y":"\ud800"}}]`,
	"[{\"select\":{\"c<&>\":\"\xff\"}}]",
	`[{"select":{"c<&>":"\u2028"}},{"select":{"c<&>":"q\"\\"}}]`,
	`[{"op":"median"},{"op":"\u003cscript\u003e"},{"op":""}]`,
	`[null,{"op":null,"select":null},{"note":{"a":[true,false,null,-1.5e+3,"s"]}}]`,
	`[{"select":{"x":"+3..007","y":"-0"}},{"select":{"x":"9223372036854775808"}},{"select":{"x":" 1"}}]`,
	`[{"select":{"x":"3..1"}},{"select":{"x":"..","y":"1.."}},{"select":{"x":"1..2..3"}}]`,
	`[{"op":1}]`,
	`[{"select":{"x":1}}]`,
	`[{"select":["x"]}]`,
	`[{"select":"x"}]`,
	`[[{"op":"sum"}]]`,
	`["sum"]`,
	`{"op":"sum"}`,
	`null`,
	`[]`,
	`[{"op":"sum"}]]`,
	`[{"op":"sum"}] x`,
	`[{"op":"sum"},]`,
	`[{"op":"sum"`,
	`[{"op":"s\u12"}]`,
	"[{\"o\x01p\":1}]",
	``,
	`[{"x":` + strings.Repeat("[", maxDepth-3) + strings.Repeat("]", maxDepth-3) + `}]`,
	`[{"x":` + strings.Repeat("[", maxDepth-2) + strings.Repeat("]", maxDepth-2) + `}]`,
}

// FuzzQueryBatch holds batchBody to encoding/json and appendBatch to
// json.Encoder. On every input both decoders refuse, or they read the same
// items: the same op, for every dimension the same spec or none, a bad name
// exactly when the map names one no dimension has, and the same region or an
// error. The answers built from the input — its ops, errors and selector
// names as strings, values, floats, cells, bounds and shard lists drawn from
// its hash — are encoded to the same bytes by hand and by json.Encoder.
func FuzzQueryBatch(f *testing.F) {
	for _, s := range queryBatchSeeds {
		f.Add([]byte(s))
	}
	c := codecCube()
	s := &Server{cube: c}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want []batchQuery
		dec := json.NewDecoder(bytes.NewReader(body))
		werr := dec.Decode(&want)
		trailing := werr == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
		p := &batchBody{scanner: scanner{buf: body}}
		n, gerr := p.decode(c)
		switch {
		case werr != nil || trailing:
			if gerr == nil {
				t.Fatalf("%q: decoded %d items; encoding/json refused it (%v) or left data after it", body, n, werr)
			}
			return
		case gerr != nil:
			t.Fatalf("%q: refused (%v); encoding/json decoded %+v", body, gerr, want)
		case n != len(want):
			t.Fatalf("%q: decoded %d items, encoding/json %d", body, n, len(want))
		}
		slots := p.slots(c)
		for k, w := range want {
			it, q := &p.items[k], &slots[k]
			if it.op != w.Op {
				t.Fatalf("%q item %d: op %q, encoding/json %q", body, k, it.op, w.Op)
			}
			bad, named := false, false
			for name := range w.Select {
				if _, err := c.Index(name); err != nil {
					bad = true
					named = named || it.sel.bad != nil && it.sel.bad.Error() == err.Error()
				}
			}
			if (it.sel.bad != nil) != bad || bad && !named {
				t.Fatalf("%q item %d: bad name error %v, encoding/json's select %q", body, k, it.sel.bad, w.Select)
			}
			for j, nd := range it.sel.named {
				spec, ok := w.Select[c.Dimension(j).Name()]
				if (nd.pos >= 0) != ok || spec != nd.spec {
					t.Fatalf("%q item %d: dimension %d named %v with %q; encoding/json's select %q", body, k, j, nd.pos >= 0, nd.spec, w.Select)
				}
			}
			if _, _, ok := validOp(cmp.Or(w.Op, "sum")); !ok {
				continue
			}
			region, err := s.regionFromSpecs(w.Select)
			if (err != nil) != (q.err != "") || err == nil && !region.Equal(q.region) {
				t.Fatalf("%q item %d: region %v (%q), encoding/json's select gives %v (%v)", body, k, q.region, q.err, region, err)
			}
		}

		// Answers built from the input.
		h := fnv.New64a()
		h.Write(body)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		env := batchEnvelope{Count: len(slots), Results: []batchResult{}}
		for k := range slots {
			q := &slots[k]
			switch rng.Intn(4) {
			case 0:
				q.err = p.items[k].op
				if bad := p.items[k].sel.bad; bad != nil {
					q.err += bad.Error()
				}
			case 1:
				if q.err == "" {
					q.err = "internal error"
				}
			default:
				q.err = ""
				q.ans = randomAnswer(rng, c)
			}
			if q.err != "" {
				env.Results = append(env.Results, batchResult{Error: q.err})
			} else {
				env.Results = append(env.Results, batchResult{Result: responseOf(&q.ans, c)})
			}
		}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(env); err != nil {
			t.Fatal(err)
		}
		if got := append(appendBatch(nil, slots, c), '\n'); !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("%q: encoded\n%s\njson.Encoder\n%s", body, got, ref.Bytes())
		}
	})
}

// randomAnswer draws an answer over c with every field the encoder may
// write or leave out: floats from the tiny to the huge, a cell, bounds,
// missing shards.
func randomAnswer(rng *rand.Rand, c *cube.Cube) queryAnswer {
	a := queryAnswer{op: []string{"sum", "avg", "max", "min", "count"}[rng.Intn(5)],
		value: rng.Int63() - rng.Int63(), volume: rng.Intn(1 << 20), accesses: rng.Int63n(1 << 30),
		empty: rng.Intn(4) == 0, partial: rng.Intn(4) == 0, unbounded: rng.Intn(4) == 0}
	switch rng.Intn(4) {
	case 0:
		a.average = float64(a.value) / float64(1+rng.Intn(1000))
	case 1:
		for a.average = math.Float64frombits(rng.Uint64()); math.IsNaN(a.average) || math.IsInf(a.average, 0); {
			a.average = math.Float64frombits(rng.Uint64())
		}
	case 2:
		a.average = math.Pow(10, float64(rng.Intn(60)-30)) * (rng.Float64() - 0.5)
	}
	if rng.Intn(2) == 0 {
		a.at = make([]int, c.Dims())
		for j := range a.at {
			a.at[j] = rng.Intn(c.Dimension(j).Size())
		}
	}
	if rng.Intn(2) == 0 {
		a.bounded, a.lo, a.hi = true, rng.Int63()-rng.Int63(), rng.Int63n(3)
	}
	for range rng.Intn(3) {
		a.missing = append(a.missing, rng.Intn(8))
	}
	return a
}

// TestAnswersEncodeAsEncodingJSON: appendAnswer writes what json.Encoder
// wrote for every answer shape, GET /query's one answer included.
func TestAnswersEncodeAsEncodingJSON(t *testing.T) {
	c := codecCube()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a := randomAnswer(rng, c)
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(responseOf(&a, c)); err != nil {
			t.Fatal(err)
		}
		if got := append(appendAnswer(nil, &a, c), '\n'); !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("encoded\n%s\njson.Encoder\n%s", got, ref.Bytes())
		}
	}
	for _, s := range []string{"<a&b>", "\u2028\u2029", "\xff\xfe", "\x00\x1f\x7f", "\b\f\n\r\t\"\\/", "é中𝄞"} {
		var ref bytes.Buffer
		json.NewEncoder(&ref).Encode(s)
		if got := append(appendString(nil, s), '\n'); !bytes.Equal(got, ref.Bytes()) {
			t.Errorf("%q: encoded %s, json.Encoder %s", s, got, ref.Bytes())
		}
	}
}

// TestSelectorErrorsNameTheFirst: a query naming two bad selectors is
// refused with an error naming the first in request order, every time, on
// both routes, where the selectors once went through a map in its random
// order.
func TestSelectorErrorsNameTheFirst(t *testing.T) {
	s := New(uniqueCube(7), 5, 4)
	h := s.Handler()
	for _, tc := range []struct{ method, target, body, first string }{
		{http.MethodPost, "/query/batch", `[{"op":"sum","select":{"zz":"1","yy":"2"}}]`, `"zz"`},
		{http.MethodGet, "/query?zz=1&yy=2", "", `"zz"`},
		{http.MethodPost, "/query/batch", `[{"select":{"age":"99","zz":"1","year":"1"}}]`, "99"},
		{http.MethodGet, "/query?year=1&age=3..1&zz=1", "", "1990..1999"},
		{http.MethodGet, "/query?zz=1&age=1&age=2", "", `"zz"`},
		{http.MethodGet, "/query?age=1&age=2&zz=1", "", `"age" specified 2 times`},
		{http.MethodGet, "/query?yy=%zz&zz=1&yy=2", "", `"zz"`},
	} {
		seen := map[string]int{}
		for range 100 {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
			msg := w.Body.String()
			if tc.method == http.MethodGet {
				var e struct{ Error string }
				json.Unmarshal(w.Body.Bytes(), &e)
				msg = e.Error
			} else {
				var out batchEnvelope
				json.Unmarshal(w.Body.Bytes(), &out)
				if len(out.Results) == 1 {
					msg = out.Results[0].Error
				}
			}
			seen[msg]++
		}
		if len(seen) != 1 {
			t.Errorf("%s %s: %d different errors over 100 requests: %v", tc.method, tc.target, len(seen), seen)
			continue
		}
		for msg := range seen {
			if !strings.Contains(msg, tc.first) {
				t.Errorf("%s %s: %q does not name the first bad selector (%s)", tc.method, tc.target, msg, tc.first)
			}
		}
	}
}

// TestGetQueryReadsPairsAsParseQuery: the names GET /query takes in order
// are the ones url.ParseQuery reads — a pair holding ';' or an undecodable
// name is none — and each resolves as before.
func TestGetQueryReadsPairsAsParseQuery(t *testing.T) {
	s := New(uniqueCube(7), 5, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, q := range []string{
		"op=sum&age=3..9&year=1991",
		"age=3..9;zz=1&year=1991",
		"%zz=1&age=%33..9&op=max",
		"&&age=3..9&=1&year",
		"age=3..9&year=1991&op=avg&op=sum",
	} {
		var got queryResponse
		code := get(t, ts, "/query?"+q, &got)
		params, _ := url.ParseQuery(q)
		specs := map[string]string{}
		for name, vals := range params {
			if name != "op" {
				specs[name] = vals[0]
			}
		}
		region, err := s.regionFromSpecs(specs)
		if (code == http.StatusOK) != (err == nil) || err == nil && got.Volume != region.Volume() {
			t.Errorf("%s: status %d volume %d; ParseQuery's selectors give %v (%v)", q, code, got.Volume, region, err)
		}
	}
}
