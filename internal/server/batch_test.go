package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rangecube/internal/naive"
)

type batchOut struct {
	Count   int           `json:"count"`
	Results []batchResult `json:"results"`
}

// postQueryBatch posts a raw body to /query/batch and decodes the response
// array when the request succeeds.
func postQueryBatch(t *testing.T, ts peer, body []byte) (int, batchOut, string) {
	t.Helper()
	resp, err := ts.Client().Post(urlOf(ts)+"/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out batchOut
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding batch response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out, string(raw)
}

func marshalBatch(t *testing.T, items []batchQuery) []byte {
	t.Helper()
	body, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestQueryBatch answers a mixed-op batch and checks every item against the
// equivalent individual GET /query answer, field for field.
func TestQueryBatch(t *testing.T) {
	s := New(uniqueCube(7), 5, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		item batchQuery
		get  string
	}{
		{batchQuery{Op: "sum", Select: map[string]string{"age": "3..40", "year": "1991..1997"}}, "/query?op=sum&age=3..40&year=1991..1997"},
		{batchQuery{Op: "max", Select: map[string]string{"age": "*", "type": "auto"}}, "/query?op=max&age=*&type=auto"},
		{batchQuery{Op: "min", Select: map[string]string{"year": "1992..1995"}}, "/query?op=min&year=1992..1995"},
		{batchQuery{Op: "avg", Select: map[string]string{"age": "17"}}, "/query?op=avg&age=17"},
		{batchQuery{Op: "count", Select: map[string]string{"type": "home"}}, "/query?op=count&type=home"},
		// Op defaults to sum; an empty select is the whole cube.
		{batchQuery{Select: map[string]string{"age": "2..9"}}, "/query?op=sum&age=2..9"},
		{batchQuery{Op: "sum"}, "/query?op=sum"},
	}
	items := make([]batchQuery, len(cases))
	for i, c := range cases {
		items[i] = c.item
	}
	code, out, raw := postQueryBatch(t, ts, marshalBatch(t, items))
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, raw)
	}
	if out.Count != len(cases) || len(out.Results) != len(cases) {
		t.Fatalf("count %d, %d results, want %d", out.Count, len(out.Results), len(cases))
	}
	for i, c := range cases {
		br := out.Results[i]
		if br.Error != "" || br.Result == nil {
			t.Fatalf("item %d failed: %+v", i, br)
		}
		var want queryResponse
		if code := get(t, ts, c.get, &want); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", c.get, code)
		}
		if !reflect.DeepEqual(*br.Result, want) {
			t.Errorf("item %d (%s): batch %+v != GET %+v", i, c.get, *br.Result, want)
		}
	}

	// Spot-check item 0 against the naive oracle too, so the batch path is
	// anchored to ground truth and not just to /query.
	region, err := s.regionFromSpecs(cases[0].item.Select)
	if err != nil {
		t.Fatal(err)
	}
	if want := naive.SumInt64(s.cube.Data(), region, nil); out.Results[0].Result.Value != want {
		t.Fatalf("batch sum = %d, oracle %d", out.Results[0].Result.Value, want)
	}
}

// TestQueryBatchErrorIsolation: malformed items fail alone; the rest of the
// batch is still answered.
func TestQueryBatchErrorIsolation(t *testing.T) {
	s := New(uniqueCube(7), 5, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	items := []batchQuery{
		{Op: "sum", Select: map[string]string{"age": "3..40"}},
		{Op: "median", Select: map[string]string{"age": "3..40"}},    // unknown op
		{Op: "sum", Select: map[string]string{"shoe_size": "1..2"}},  // unknown dimension
		{Op: "sum", Select: map[string]string{"age": "40..3"}},       // inverted range
		{Op: "max", Select: map[string]string{"year": "1993..1996"}}, // fine
	}
	code, out, raw := postQueryBatch(t, ts, marshalBatch(t, items))
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, raw)
	}
	for _, i := range []int{0, 4} {
		if out.Results[i].Error != "" || out.Results[i].Result == nil {
			t.Fatalf("good item %d poisoned by neighbors: %+v", i, out.Results[i])
		}
	}
	for i, wantSub := range map[int]string{1: "unknown op", 2: "shoe_size", 3: ""} {
		br := out.Results[i]
		if br.Error == "" || br.Result != nil {
			t.Fatalf("bad item %d not rejected: %+v", i, br)
		}
		if wantSub != "" && !strings.Contains(br.Error, wantSub) {
			t.Fatalf("item %d error %q, want mention of %q", i, br.Error, wantSub)
		}
	}
	var want queryResponse
	get(t, ts, "/query?op=max&year=1993..1996", &want)
	if !reflect.DeepEqual(*out.Results[4].Result, want) {
		t.Fatalf("surviving item diverges: %+v != %+v", *out.Results[4].Result, want)
	}
}

// TestQueryBatchLimits covers the request-level rejections: bad JSON and an
// empty array are 400, a batch over the 1,024-query limit is 413.
func TestQueryBatchLimits(t *testing.T) {
	s, err := NewWithOptions(uniqueCube(7), Options{BlockSize: 5, Fanout: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, raw := postQueryBatch(t, ts, []byte(`{"op":"sum"}`)); code != http.StatusBadRequest {
		t.Fatalf("non-array body: %d %s", code, raw)
	}
	if code, _, raw := postQueryBatch(t, ts, []byte(`[]`)); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d %s", code, raw)
	}
	over := marshalBatch(t, make([]batchQuery, maxBatchQueries+1))
	if code, _, raw := postQueryBatch(t, ts, over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d %s", code, raw)
	}
	at := marshalBatch(t, make([]batchQuery, maxBatchQueries))
	if code, _, raw := postQueryBatch(t, ts, at); code != http.StatusOK {
		t.Fatalf("at-limit batch: %d %.200s", code, raw)
	}
}

// TestUpdateAdmissionShedding: POST /update now sits behind the same
// admission semaphore as queries. With the single slot held, updates shed
// with 429 + Retry-After instead of queueing unboundedly; once the slot
// frees they are admitted again.
func TestUpdateAdmissionShedding(t *testing.T) {
	s, err := NewWithOptions(uniqueCube(7), Options{BlockSize: 5, Fanout: 4, MaxInflight: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	one := []map[string]any{{"coords": []int{10, 3, 0}, "delta": 1}}

	s.inflight <- struct{}{} // park a fake in-flight request at the cap
	code, body := postBatch(t, ts, one)
	if code != http.StatusTooManyRequests {
		t.Fatalf("update at capacity: %d %s", code, body)
	}
	<-s.inflight
	if code, body = postBatch(t, ts, one); code != http.StatusOK {
		t.Fatalf("update after release: %d %s", code, body)
	}

	// Race a burst of point updates against the cap: every response must be
	// a clean 200 or 429, and the cell must reflect exactly the accepted
	// deltas — a shed update leaves no partial state behind.
	var before queryResponse
	const point = "/query?op=sum&age=11&year=1993&type=auto"
	if code := get(t, ts, point, &before); code != http.StatusOK {
		t.Fatalf("point query: %d", code)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"updates": one})
			resp, err := ts.Client().Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				mu.Lock()
				accepted++
				mu.Unlock()
			case http.StatusTooManyRequests:
			default:
				t.Errorf("racing update: status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	var after queryResponse
	if code := get(t, ts, point, &after); code != http.StatusOK {
		t.Fatalf("point query: %d", code)
	}
	if after.Value != before.Value+int64(accepted) {
		t.Fatalf("cell moved by %d, but %d updates were accepted", after.Value-before.Value, accepted)
	}
}

// TestBatchQuerySoak races concurrent /query/batch requests against /update
// batches on a blocked-engine server, then checks the drained state against
// the naive oracle. This is the -race soak CI runs.
func TestBatchQuerySoak(t *testing.T) {
	c := uniqueCube(11)
	s, err := NewWithOptions(c, Options{
		BlockSize: 5, Fanout: 4, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const updaters, queriers, rounds = 2, 3, 25
	var wg sync.WaitGroup
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for _, batch := range randomBatches(int64(100+u), rounds) {
				if code, body := postBatch(t, ts, batch); code != http.StatusOK {
					t.Errorf("updater %d: %d %s", u, code, body)
					return
				}
			}
		}(u)
	}
	ops := []string{"sum", "max", "min", "avg", "count"}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + q)))
			for round := 0; round < rounds; round++ {
				items := make([]batchQuery, 1+rng.Intn(7))
				for i := range items {
					lo := 1 + rng.Intn(50)
					items[i] = batchQuery{
						Op:     ops[rng.Intn(len(ops))],
						Select: map[string]string{"age": fmt.Sprintf("%d..%d", lo, lo+rng.Intn(51-lo))},
					}
				}
				code, out, raw := postQueryBatch(t, ts, marshalBatch(t, items))
				if code != http.StatusOK {
					t.Errorf("querier %d: %d %s", q, code, raw)
					return
				}
				for i, br := range out.Results {
					if br.Error != "" || br.Result == nil {
						t.Errorf("querier %d item %d: %+v", q, i, br)
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()

	// Quiescent: every batch answer must now agree with the oracle over the
	// drained cube, and a repeat must answer with the same bits.
	rng := rand.New(rand.NewSource(99))
	for k := 0; k < 20; k++ {
		lo := 1 + rng.Intn(50)
		items := []batchQuery{{Op: "sum", Select: map[string]string{"age": fmt.Sprintf("%d..%d", lo, lo+rng.Intn(51-lo))}}}
		code, out, raw := postQueryBatch(t, ts, marshalBatch(t, items))
		if code != http.StatusOK {
			t.Fatalf("drained query: %d %s", code, raw)
		}
		region, err := s.regionFromSpecs(items[0].Select)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.SumInt64(c.Data(), region, nil); out.Results[0].Result.Value != want {
			t.Fatalf("drained sum over %v = %d, oracle %d", region, out.Results[0].Result.Value, want)
		}
		_, out2, _ := postQueryBatch(t, ts, marshalBatch(t, items))
		if got := out2.Results[0].Result; got.Value != out.Results[0].Result.Value {
			t.Fatalf("repeat answered differently: %+v", got)
		}
	}
}
