package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"rangecube/internal/cube"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
	"rangecube/internal/trace"
)

func testServer(t *testing.T) (*Server, *cube.Cube) {
	t.Helper()
	c := cube.New(
		cube.NewIntDimension("age", 1, 50),
		cube.NewIntDimension("year", 1990, 1999),
		cube.NewCategoryDimension("type", "auto", "home"),
	)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		typ := "auto"
		if rng.Intn(2) == 0 {
			typ = "home"
		}
		if err := c.Add(int64(rng.Intn(100)), 1+rng.Intn(50), 1990+rng.Intn(10), typ); err != nil {
			t.Fatal(err)
		}
	}
	return New(c, 1, 4), c
}

func TestSchemaEndpoint(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var out struct {
		Dimensions []struct {
			Name string `json:"name"`
			Size int    `json:"size"`
		} `json:"dimensions"`
		Cells int `json:"cells"`
	}
	if code := get(t, ts, "/schema", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Dimensions) != 3 || out.Cells != 50*10*2 {
		t.Fatalf("schema = %+v", out)
	}
	if out.Dimensions[0].Name != "age" || out.Dimensions[0].Size != 50 {
		t.Fatalf("first dimension = %+v", out.Dimensions[0])
	}
}

func TestQueryEndpoints(t *testing.T) {
	s, c := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	region, err := c.Region(
		cube.Between("age", 20, 35),
		cube.Between("year", 1992, 1997),
		cube.Eq("type", "auto"),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.SumInt64(c.Data(), region, nil)

	var out queryResponse
	code := get(t, ts, "/query?op=sum&age=20..35&year=1992..1997&type=auto", &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Value != want {
		t.Fatalf("sum = %d, want %d", out.Value, want)
	}
	if out.LowerBnd == nil || out.UpperBnd == nil {
		t.Fatal("sum response missing bounds")
	}
	if *out.LowerBnd > want || want > *out.UpperBnd {
		t.Fatalf("bounds [%d,%d] miss %d", *out.LowerBnd, *out.UpperBnd, want)
	}
	if out.Accesses == 0 || out.Accesses > 8 {
		t.Fatalf("accesses = %d, want ≤ 2^3", out.Accesses)
	}

	// Max with location rendering.
	code = get(t, ts, "/query?op=max&age=20..35&type=auto", &out)
	if code != http.StatusOK || out.Empty {
		t.Fatalf("max failed: %d %+v", code, out)
	}
	maxRegion, err := c.Region(cube.Between("age", 20, 35), cube.Eq("type", "auto"))
	if err != nil {
		t.Fatal(err)
	}
	_, wantMax, _ := naive.Max(c.Data(), maxRegion, nil)
	if out.Value != wantMax {
		t.Fatalf("max = %d, want %d", out.Value, wantMax)
	}
	if len(out.At) != 3 {
		t.Fatalf("At = %v", out.At)
	}

	// Default op is sum; avg and count work; min works.
	if code := get(t, ts, "/query?age=1..50", &out); code != http.StatusOK {
		t.Fatalf("default op status %d", code)
	}
	if code := get(t, ts, "/query?op=avg&year=1995", &out); code != http.StatusOK || out.Average == 0 {
		t.Fatalf("avg failed: %d %+v", code, out)
	}
	if code := get(t, ts, "/query?op=count&type=home", &out); code != http.StatusOK || out.Value != 500 {
		t.Fatalf("count = %+v", out)
	}
	if code := get(t, ts, "/query?op=min&year=1990..1991", &out); code != http.StatusOK {
		t.Fatalf("min status %d", code)
	}
}

func TestQueryErrors(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{
		"/query?op=sum&bogus=3",
		"/query?op=teleport&age=1..10",
		"/query?op=sum&age=50..1",
		"/query?op=sum&age=1..10&age=2..5",
	} {
		if code := get(t, ts, path, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
	}
}

func TestUpdateEndpoint(t *testing.T) {
	s, c := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var before queryResponse
	get(t, ts, "/query?op=sum&age=10&year=1995&type=auto", &before)

	body, _ := json.Marshal(map[string]any{
		"updates": []map[string]any{
			{"coords": []int{9, 5, 0}, "delta": 100}, // age=10, year=1995, auto
			{"coords": []int{9, 5, 0}, "delta": 23},
		},
	})
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}

	var after queryResponse
	get(t, ts, "/query?op=sum&age=10&year=1995&type=auto", &after)
	if after.Value != before.Value+123 {
		t.Fatalf("after update sum = %d, want %d", after.Value, before.Value+123)
	}
	// Max must reflect the bump too (cell now holds before+123 ≥ 123).
	var mx queryResponse
	get(t, ts, "/query?op=max&age=10&year=1995&type=auto", &mx)
	if mx.Value != after.Value {
		t.Fatalf("max = %d, want the single cell value %d", mx.Value, after.Value)
	}
	_ = c
}

func TestUpdateValidation(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`not json`,
		`{"updates":[]}`,
		`{"updates":[{"coords":[1],"delta":1}]}`,
		`{"updates":[{"coords":[99,0,0],"delta":1}]}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/update", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// Concurrent readers and a writer exercise the locking.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var out queryResponse
				if code := get(t, ts, fmt.Sprintf("/query?op=sum&age=%d..%d", 1+seed, 30+seed), &out); code != http.StatusOK {
					t.Errorf("query status %d", code)
					return
				}
				if out.LowerBnd == nil || out.UpperBnd == nil ||
					*out.LowerBnd > out.Value || out.Value > *out.UpperBnd {
					t.Error("bounds violated under concurrency")
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			body, _ := json.Marshal(map[string]any{
				"updates": []map[string]any{{"coords": []int{i, i, 0}, "delta": 5}},
			})
			resp, err := ts.Client().Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
}

// TestAvgEmptyRegion checks the defined empty-region answer shape through
// evalSlots: explicit empty marker on every op, no NaN anywhere (NaN would
// make json.Marshal fail), no division by zero.
func TestAvgEmptyRegion(t *testing.T) {
	s := New(uniqueCube(7), 5, 4)
	empty := ndarray.Region{{Lo: 0, Hi: -1}, {Lo: 0, Hi: 9}, {Lo: 0, Hi: 1}}
	ops := []string{"avg", "sum", "count", "max", "min"}
	slots := make([]batchSlot, len(ops))
	for i, op := range ops {
		_, rop, _ := validOp(op)
		slots[i] = batchSlot{op: op, rop: rop, region: empty}
	}
	if _, err := s.evalSlots(t.Context(), slots); err != nil {
		t.Fatalf("a batch over an empty region: %v", err)
	}
	for i, op := range ops {
		if slots[i].err != "" {
			t.Fatalf("op=%s over empty region: no answer (%q)", op, slots[i].err)
		}
		resp := responseOf(&slots[i].ans, s.cube)
		if !resp.Empty {
			t.Fatalf("op=%s over empty region not marked empty: %+v", op, resp)
		}
		if resp.Value != 0 || resp.Average != 0 || resp.Volume != 0 {
			t.Fatalf("op=%s over empty region = %+v, want zero values", op, resp)
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("op=%s empty answer does not encode: %v", op, err)
		}
	}
}

// Options.Fanout 0 means the trees' default of 4, and a fanout below 2 is an
// error from NewWithOptions, not a panic inside the tree build.
func TestFanoutZeroMeansFourAndOneIsRefused(t *testing.T) {
	c := cube.New(cube.NewIntDimension("x", 0, 7), cube.NewIntDimension("y", 0, 7))
	for i := range c.Data().Data() {
		c.Data().Data()[i] = int64(i)
	}
	s, err := NewWithOptions(c, Options{})
	if err != nil {
		t.Fatalf("Fanout 0: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if got, code := sumOf(t, ts, "/query?op=max&x=0..6"); code != http.StatusOK || got.Value != 55 {
		t.Fatalf("Fanout 0: max over x 0..6 is %d (status %d), want 55", got.Value, code)
	}
	if _, err := NewWithOptions(uniqueCube(7), Options{Fanout: 1}); err == nil {
		t.Fatal("Fanout 1 built a server")
	}
}

// Options.SlowQuery 0 means its documented 250ms for the slow-query exemplar
// line too, not only for the tracer's keep rule.
func TestSlowQueryZeroMeansDefault(t *testing.T) {
	s, err := NewWithOptions(uniqueCube(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.opts.SlowQuery != trace.DefaultSlow {
		t.Fatalf("SlowQuery 0 resolved to %v, want %v", s.opts.SlowQuery, trace.DefaultSlow)
	}
}
