package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/ingest"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
)

// onePathCube is a small 2-d cube whose split dimension (x, the larger) is
// wide enough for three slabs.
func onePathCube() *cube.Cube {
	c := cube.New(
		cube.NewIntDimension("x", 0, 11),
		cube.NewIntDimension("y", 0, 6),
	)
	for x := 0; x < 12; x++ {
		for y := 0; y < 7; y++ {
			c.Data().Set(int64((x*31+y*7)%53-9), x, y)
		}
	}
	return c
}

// answerFields is what GET /query and a one-item POST /query/batch must
// agree on; accesses are per-evaluation bookkeeping and excluded.
type answerFields struct {
	Value   int64
	Lo, Hi  *int64
	At      []string
	Volume  int
	Empty   bool
	Partial bool
	Missing []int
}

func fieldsOf(r queryResponse) answerFields {
	return answerFields{r.Value, r.LowerBnd, r.UpperBnd, r.At, r.Volume, r.Empty, r.Partial, r.Missing}
}

// TestQueryIsBatchOfOne holds the merged read path to its contract: on a
// one-shard server at b = 1 and at b > 1 and on a remote-shard leader,
// GET /query and a one-item POST /query/batch return the same value, bounds,
// position, volume and empty/partial markers for all five ops, and the value
// is the naive oracle's. A sum's bounds contain it, and equal it wherever the
// answer is exact by construction — at b = 1 and on a healthy leader (the
// one-bounds rule). The remote leader is checked again with a shard down,
// where sums degrade to the same partial envelope on both routes.
func TestQueryIsBatchOfOne(t *testing.T) {
	quiet := func(string, ...any) {}
	configs := []struct {
		name   string
		opts   Options
		shards int    // remote shards behind a leader on a tier
		engine string // cube_query_cost_* engine label of op=sum
	}{
		// The deprecated engine name, as the benchmark still configures its
		// §3 workloads: b = 1 whatever BlockSize says.
		{"one-shard", Options{BlockSize: 3, SumEngine: "prefixsum", Fanout: 3, Metrics: true, Logf: quiet}, 0, "prefixsum"},
		{"one-shard-blocked", Options{BlockSize: 3, Fanout: 3, Metrics: true, Logf: quiet}, 0, "blocked"},
		{"shard-urls", Options{BlockSize: 1, Fanout: 3, Metrics: true, Logf: quiet, ShardTimeout: 2 * time.Second}, 3, "sharded:prefixsum"},
	}
	selectors := []struct {
		get string
		sel map[string]string
		r   ndarray.Region
	}{
		{"x=2..9&y=1..5", map[string]string{"x": "2..9", "y": "1..5"}, ndarray.Region{{Lo: 2, Hi: 9}, {Lo: 1, Hi: 5}}},
		{"x=0..3", map[string]string{"x": "0..3"}, ndarray.Region{{Lo: 0, Hi: 3}, {Lo: 0, Hi: 6}}},
		{"x=7&y=*", map[string]string{"x": "7", "y": "*"}, ndarray.Region{{Lo: 7, Hi: 7}, {Lo: 0, Hi: 6}}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			c := onePathCube()
			oracle := c.Data().Clone()
			var ts peer
			var tr *tier
			if cfg.shards > 0 {
				tr = newTier(t, tierSpec{cube: c, shards: cfg.shards, opts: cfg.opts})
				ts = tr.leader
			} else {
				s, err := NewWithOptions(c, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}
				hs := httptest.NewServer(s.Handler())
				t.Cleanup(func() { hs.Close(); s.Close() })
				ts = hs
			}

			both := func(op, params string, sel map[string]string) queryResponse {
				t.Helper()
				var one queryResponse
				if code := get(t, ts, "/query?op="+op+"&"+params, &one); code != http.StatusOK {
					t.Fatalf("GET %s %s: status %d", op, params, code)
				}
				code, out, raw := postQueryBatch(t, ts, marshalBatch(t, []batchQuery{{Op: op, Select: sel}}))
				if code != http.StatusOK || len(out.Results) != 1 || out.Results[0].Result == nil {
					t.Fatalf("batch of one %s %s: status %d body %s", op, params, code, raw)
				}
				if a, b := fieldsOf(one), fieldsOf(*out.Results[0].Result); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s over %s: GET %+v, batch of one %+v", op, params, a, b)
				}
				return one
			}
			for _, q := range selectors {
				sum := naive.SumInt64(oracle, q.r, nil)
				for _, op := range []string{"sum", "count", "avg", "max", "min"} {
					one := both(op, q.get, q.sel)
					want := sum
					switch op {
					case "count":
						want = int64(q.r.Volume())
					case "max":
						_, want, _ = naive.Max(oracle, q.r, nil)
					case "min":
						_, want, _ = naive.Min(oracle, q.r, nil)
					}
					if one.Value != want || one.Partial || one.Volume != q.r.Volume() {
						t.Fatalf("%s over %s = %+v, oracle says %d", op, q.get, one, want)
					}
					exact := cfg.engine != "blocked"
					if op == "sum" && (one.LowerBnd == nil || *one.LowerBnd > sum || *one.UpperBnd < sum ||
						exact && (*one.LowerBnd != sum || *one.UpperBnd != sum)) {
						t.Fatalf("sum bounds over %s exclude the oracle's %d, or are not it where the sum is exact: %+v", q.get, sum, one)
					}
				}
			}

			// The engine label follows the router's shard count, so a remote
			// leader is labelled sharded.
			metrics := scrape(t, ts)
			want := fmt.Sprintf(`cube_query_cost_cells_count{op="sum",engine=%q}`, cfg.engine)
			if !strings.Contains(metrics, want) {
				t.Fatalf("/metrics lacks %s", want)
			}
			// Structure bytes are this process's own: a leader of remote
			// shards holds none of the structures and exports no sample.
			if has := strings.Contains(metrics, "cube_structure_bytes{"); has != (cfg.shards == 0) {
				t.Fatalf("/metrics carries cube_structure_bytes samples = %v", has)
			}
			// Every sum, avg, max and min above, on both routes, is one router
			// query, and each fans out to at least one sub-query.
			shards, queries, subqueries := seriesValue(metrics, "cube_shards", ""),
				seriesValue(metrics, "cube_shard_queries_total", ""),
				seriesValue(metrics, "cube_shard_subqueries_total", "")
			if shards != float64(max(1, cfg.shards)) || queries != float64(2*4*len(selectors)) || subqueries < queries {
				t.Fatalf("cube_shards %v, cube_shard_queries_total %v, cube_shard_subqueries_total %v", shards, queries, subqueries)
			}

			if cfg.shards == 0 {
				return
			}
			// What the leader asked over the wire is visible on each shard where
			// an operator looks: the scatter frames under their own path label,
			// and the per-op cost series counting the items they carried.
			for i, n := range tr.shards {
				body := exposition(t, n.Server)
				if seriesValue(body, "cube_http_requests_total", `path="/shard/query"`) == 0 || strings.Contains(body, `path="other"`) {
					t.Fatalf("shard %d does not count its scatter frames under their own path label", i)
				}
				if seriesValue(body, "cube_query_cost_cells_count", `op="max",engine="maxtree"`) == 0 {
					t.Fatalf("shard %d's max cost series did not count the frames' max items", i)
				}
			}
			// Take the last slab's shard away: both routes must degrade the
			// same sum to the same partial envelope, containing the oracle.
			tr.stop(tr.shards[2])
			q := selectors[0]
			one := both("sum", q.get, q.sel)
			if sum := naive.SumInt64(oracle, q.r, nil); !one.Partial || len(one.Missing) != 1 || one.Missing[0] != 2 || *one.LowerBnd > sum || *one.UpperBnd < sum {
				t.Fatalf("sum with shard 2 gone = %+v, want a partial sum covering the oracle's %d with shard 2 missing", one, sum)
			}
			body := scrape(t, ts)
			if errs, partials := seriesValue(body, "cube_shard_remote_errors_total", ""), seriesValue(body, "cube_shard_remote_partials_total", ""); errs < 1 || partials < 2 {
				t.Fatalf("with shard 2 down: cube_shard_remote_errors_total %v, cube_shard_remote_partials_total %v, want >= 1 and >= 2", errs, partials)
			}
		})
	}
}

// TestOneShardServesCubeInPlaceOnce pins the aliasing hazard of the
// one-shard router: it serves the cube's own array, so a commit must reach
// each cell exactly once — through the engine, not also through the server.
func TestOneShardServesCubeInPlaceOnce(t *testing.T) {
	c := onePathCube()
	oracle := c.Data().Clone()
	s, err := NewWithOptions(c, Options{
		BlockSize: 3, Fanout: 3,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	whole := ndarray.Region{{Lo: 1, Hi: 10}, {Lo: 1, Hi: 5}} // off the block grid on every side
	for b := 0; b < 8; b++ {
		// Duplicate coordinates inside a batch coalesce; the net delta must
		// land once.
		ups := []ingest.Update{
			{Coords: []int{b, b % 7}, Delta: int64(10 + b)},
			{Coords: []int{11 - b, 3}, Delta: int64(-4 * b)},
			{Coords: []int{b, b % 7}, Delta: 5},
		}
		ack, err := s.SubmitUpdates(ups, true)
		if err != nil {
			t.Fatal(err)
		}
		if res := <-ack; res.Err != nil {
			t.Fatal(res.Err)
		}
		for _, u := range ups {
			oracle.Set(oracle.At(u.Coords...)+u.Delta, u.Coords...)
		}
	}
	if got, want := s.cube.Data().Data(), oracle.Data(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cube cells after 8 batches differ from the once-applied oracle:\n got %v\nwant %v", got, want)
	}
	s.mu.RLock()
	got, err := s.router.Sum(t.Context(), whole, nil)
	s.mu.RUnlock()
	if want := naive.SumInt64(oracle, whole, nil); err != nil || got != want {
		t.Fatalf("sum %d (err %v), oracle %d", got, err, want)
	}
}
