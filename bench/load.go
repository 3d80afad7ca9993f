package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rangecube/internal/ingest"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
)

// checkEvery is the sampling stride of the in-round correctness check:
// every 64th answer is compared with the oracle.
const checkEvery = 64

// stallCut separates a reader's requests that met a commit from those that
// did not: unstalled single queries take ~50 µs and a stall lasts at least
// the 2 ms of one injected disk operation, so 1 ms cuts cleanly.
const stallCut = time.Millisecond

// request is one pre-encoded HTTP request of the round script, carrying
// items queries starting at index first of script.queries (or, for an
// update, the batch at index first of script.updates).
type request struct {
	method string
	url    string
	body   []byte
	first  int
	items  int
}

// loadClient is one load connection: its own transport, so two clients
// never share a socket, and a reused buffer for the response body.
type loadClient struct {
	hc  *http.Client
	buf bytes.Buffer
	rid string // when set, sent as X-Request-Id instead of letting the server mint one
}

func newLoadClient() *loadClient {
	return &loadClient{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

// do sends one request and leaves the response body in lc.buf.
func (lc *loadClient) do(rq *request) (status int, err error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, rq.url, body)
	if err != nil {
		return 0, err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if lc.rid != "" {
		req.Header.Set("X-Request-Id", lc.rid)
	}
	resp, err := lc.hc.Do(req)
	if err != nil {
		return 0, err
	}
	lc.buf.Reset()
	_, err = lc.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

func (lc *loadClient) close() { lc.hc.CloseIdleConnections() }

// selectors renders a region in the grammar GET /query and /query/batch
// share.
func selectors(r ndarray.Region) (d0, d1 string) {
	return fmt.Sprintf("%d..%d", r[0].Lo, r[0].Hi), fmt.Sprintf("%d..%d", r[1].Lo, r[1].Hi)
}

func opName(q query) string {
	if q.max {
		return "max"
	}
	return "sum"
}

// queryRequests encodes queries[first:first+n] as requests of batch queries
// each against base.
func queryRequests(base string, queries []query, first, n, batch int) []request {
	var out []request
	for lo := first; lo < first+n; lo += batch {
		hi := min(lo+batch, first+n)
		if batch == 1 {
			d0, d1 := selectors(queries[lo].r)
			out = append(out, request{method: http.MethodGet, first: lo, items: 1,
				url: fmt.Sprintf("%s/query?op=%s&d0=%s&d1=%s", base, opName(queries[lo]), d0, d1)})
			continue
		}
		body := []byte{'['}
		for i := lo; i < hi; i++ {
			if i > lo {
				body = append(body, ',')
			}
			d0, d1 := selectors(queries[i].r)
			body = append(body, fmt.Sprintf(`{"op":%q,"select":{"d0":%q,"d1":%q}}`, opName(queries[i]), d0, d1)...)
		}
		body = append(body, ']')
		out = append(out, request{method: http.MethodPost, url: base + "/query/batch", body: body, first: lo, items: hi - lo})
	}
	return out
}

// updateRequests encodes each update batch as one POST /update.
func updateRequests(base string, batches [][]update) []request {
	out := make([]request, len(batches))
	for i, b := range batches {
		body := []byte(`{"updates":[`)
		for k, u := range b {
			if k > 0 {
				body = append(body, ',')
			}
			body = append(body, fmt.Sprintf(`{"coords":[%d,%d],"delta":%d}`, u.coords[0], u.coords[1], u.delta)...)
		}
		body = append(body, "]}"...)
		out[i] = request{method: http.MethodPost, url: base + "/update?durability=sync", body: body, first: i, items: len(b)}
	}
	return out
}

func ingestUpdates(b []update) []ingest.Update {
	out := make([]ingest.Update, len(b))
	for i, u := range b {
		out[i] = ingest.Update{Coords: u.coords, Delta: u.delta}
	}
	return out
}

// answers extracts the values of a /query or /query/batch response.
func answers(body []byte, batch bool) ([]int64, error) {
	if !batch {
		var one struct {
			Value int64 `json:"value"`
		}
		if err := json.Unmarshal(body, &one); err != nil {
			return nil, err
		}
		return []int64{one.Value}, nil
	}
	var env struct {
		Results []struct {
			Result *struct {
				Value int64 `json:"value"`
			} `json:"result"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	out := make([]int64, len(env.Results))
	for i, r := range env.Results {
		if r.Result == nil {
			return nil, fmt.Errorf("batch item %d: %s", i, r.Error)
		}
		out[i] = r.Result.Value
	}
	return out, nil
}

// check is one sampled answer awaiting the oracle. For the slow-disk reader
// lo and hi bound how many of the round's commits the answer may include:
// those acknowledged before the request was sent, and those sent before the
// response arrived.
type check struct {
	qi     int
	got    int64
	lo, hi int
}

// round is what one round measured.
type round struct {
	queries, updates    int     // queries answered, point updates acknowledged
	queryNS, updateNS   int64   // wall time of the two segments
	cpuNS               int64   // process user+sys CPU over the query segment
	stalledNS           int64   // reader time inside requests slower than stallCut
	queryP50, updateP50 float64 // median request latency of each segment, ns
}

// samples pools per-request latencies over the measured rounds.
type samples struct {
	query, update, late []int64
}

// runner drives rounds against one booted stack and keeps the oracle in
// step with every acknowledged update.
type runner struct {
	spec    spec
	script  *script
	st      *stack
	oracle  *naive.Oracle
	clients []*loadClient
	qreqs   [][]request // per client
	ureqs   []request
	rec     *recorder // non-nil: record a span around every request

	attempted, failed int
	keep              *samples // nil during warm-up rounds
}

func newRunner(s spec, sc *script, st *stack, oracle *naive.Oracle) *runner {
	r := &runner{spec: s, script: sc, st: st, oracle: oracle}
	base := st.front.url
	per := s.queriesPerRound() / s.clients
	for c := 0; c < s.clients; c++ {
		r.clients = append(r.clients, newLoadClient())
		r.qreqs = append(r.qreqs, queryRequests(base, sc.queries, c*per, per, s.batch))
	}
	r.clients = append(r.clients, newLoadClient()) // the writer's connection
	r.ureqs = updateRequests(base, sc.updates[:s.updReqs])
	return r
}

func (r *runner) close() {
	for _, c := range r.clients {
		c.close()
	}
}

func (r *runner) writer() *loadClient { return r.clients[len(r.clients)-1] }

func cpuNow() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// send issues one request on lc, timing it from t0 (the send time of a
// closed loop, the due time of an open one). ok is false, and the request's
// items are counted as failed, on a transport error or a status other than
// 200.
func (r *runner) send(lc *loadClient, rq *request, op int, name string, t0 time.Time) (lat int64, ok bool) {
	status, err := lc.do(rq)
	end := time.Now()
	r.rec.add(op, "e2e", name, "", t0, end)
	return end.Sub(t0).Nanoseconds(), err == nil && status == http.StatusOK
}

// runRound runs one round of the script.
func (r *runner) runRound() round {
	if r.spec.updPeriod > 0 {
		return r.mixedRound()
	}
	var rd round
	var mu sync.Mutex // guards rd, r.attempted, r.failed, checks and qlats across client goroutines
	var checks []check
	var qlats []int64
	var wg sync.WaitGroup
	cpu0, t0 := cpuNow(), time.Now()
	for c := range r.qreqs {
		wg.Add(1)
		go func(lc *loadClient, reqs []request) {
			defer wg.Done()
			lats := make([]int64, 0, len(reqs))
			var mine []check
			answered, failed := 0, 0
			for i := range reqs {
				rq := &reqs[i]
				lat, ok := r.send(lc, rq, rq.first, "query", time.Now())
				lats = append(lats, lat)
				// k is the first multiple of checkEvery at or after rq.first;
				// the response is decoded only when it carries a sampled item.
				if k := (rq.first + checkEvery - 1) / checkEvery * checkEvery; ok && k < rq.first+rq.items {
					vals, err := answers(lc.buf.Bytes(), r.spec.batch > 1)
					ok = err == nil && len(vals) == rq.items
					for ; ok && k < rq.first+rq.items; k += checkEvery {
						mine = append(mine, check{qi: k, got: vals[k-rq.first]})
					}
				}
				if ok {
					answered += rq.items
				} else {
					failed += rq.items
				}
			}
			mu.Lock()
			rd.queries += answered
			r.attempted += answered + failed
			r.failed += failed
			checks = append(checks, mine...)
			qlats = append(qlats, lats...)
			mu.Unlock()
		}(r.clients[c], r.qreqs[c])
	}
	wg.Wait()
	rd.queryNS = time.Since(t0).Nanoseconds()
	rd.cpuNS = cpuNow() - cpu0
	for _, ck := range checks {
		r.verify(ck, nil)
	}

	var ulats []int64
	t0 = time.Now()
	for i := range r.ureqs {
		rq := &r.ureqs[i]
		lat, ok := r.send(r.writer(), rq, rq.first, "update", time.Now())
		r.attempted++
		if !ok {
			r.failed++
			continue
		}
		rd.updates += rq.items
		r.applyToOracle(rq.first)
		ulats = append(ulats, lat)
	}
	rd.updateNS = time.Since(t0).Nanoseconds()
	r.record(&rd, qlats, ulats, nil)
	return rd
}

// record stores the round's median latencies and, in a measured round, adds
// its requests to the pooled samples.
func (r *runner) record(rd *round, qlats, ulats, late []int64) {
	rd.queryP50, rd.updateP50 = median(floats(qlats)), median(floats(ulats))
	if r.keep != nil {
		r.keep.query = append(r.keep.query, qlats...)
		r.keep.update = append(r.keep.update, ulats...)
		r.keep.late = append(r.keep.late, late...)
	}
}

func (r *runner) applyToOracle(batch int) {
	for _, u := range r.script.updates[batch] {
		r.oracle.Add(u.coords, u.delta)
	}
}

// verify compares one sampled answer with the oracle. contrib is nil when
// no update raced the query; otherwise contrib[j] is what the round's first
// j update batches add to the query's region, and the answer must match the
// oracle at some j inside the check's window.
func (r *runner) verify(ck check, contrib func(reg ndarray.Region) []int64) {
	q := r.script.queries[ck.qi]
	var want int64
	if q.max {
		want, _ = r.oracle.Max(q.r)
	} else {
		want = r.oracle.Sum(q.r)
	}
	if contrib == nil {
		if ck.got != want {
			r.failed++
		}
		return
	}
	pre := contrib(q.r)
	for j := ck.lo; j <= ck.hi; j++ {
		if ck.got == want+pre[j] {
			return
		}
	}
	r.failed++
}

// mixedRound runs the slow-disk round: the writer sends the round's update
// batches open loop on a fixed schedule, each latency timed from the instant
// the request was due, while one reader queries closed loop until the
// writer's last acknowledgment.
func (r *runner) mixedRound() round {
	var rd round
	var sent, acked atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	var checks []check
	var qlats []int64
	cpu0, start := cpuNow(), time.Now()

	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		lc, reqs := r.clients[0], r.qreqs[0]
		for i := 0; !done.Load(); i++ {
			rq := &reqs[i%len(reqs)]
			lo := int(acked.Load())
			lat, ok := r.send(lc, rq, i, "query", time.Now())
			hi := int(sent.Load())
			qlats = append(qlats, lat)
			r.attempted++
			if !ok {
				r.failed++
				continue
			}
			rd.queries++
			if lat > stallCut.Nanoseconds() {
				rd.stalledNS += lat
			}
			if i%checkEvery == 0 {
				vals, err := answers(lc.buf.Bytes(), false)
				if err != nil {
					r.failed++
					rd.queries--
					continue
				}
				checks = append(checks, check{qi: rq.first, got: vals[0], lo: lo, hi: hi})
			}
		}
	}()

	var ulats, late []int64
	wfailed := 0
	for i := range r.ureqs {
		rq := &r.ureqs[i]
		due := start.Add(time.Duration(i) * r.spec.updPeriod)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, max(time.Since(due).Nanoseconds(), 0))
		sent.Add(1)
		lat, ok := r.send(r.writer(), rq, rq.first, "update", due)
		acked.Add(1)
		ulats = append(ulats, lat)
		if !ok {
			wfailed++
			continue
		}
		rd.updates += rq.items
	}
	done.Store(true)
	wg.Wait()
	rd.queryNS = time.Since(start).Nanoseconds()
	rd.updateNS = rd.queryNS
	rd.cpuNS = cpuNow() - cpu0
	r.attempted += len(r.ureqs)
	r.failed += wfailed

	// contrib gives, for a region, the running sum of what the round's
	// batches add to it; the oracle still holds the round-start state.
	contrib := func(reg ndarray.Region) []int64 {
		pre := make([]int64, len(r.ureqs)+1)
		for j, b := range r.script.updates[:len(r.ureqs)] {
			pre[j+1] = pre[j]
			for _, u := range b {
				if reg[0].Contains(u.coords[0]) && reg[1].Contains(u.coords[1]) {
					pre[j+1] += u.delta
				}
			}
		}
		return pre
	}
	if wfailed == 0 {
		for _, ck := range checks {
			r.verify(ck, contrib)
		}
	}
	for i := range r.ureqs {
		r.applyToOracle(i)
	}
	r.record(&rd, qlats, ulats, late)
	return rd
}

// finalCheck asks for the script's closing sample of sums and the whole-cube
// sum and compares each with the oracle.
func (r *runner) finalCheck() {
	lc := r.writer()
	qs := make([]query, len(r.script.final))
	for i, reg := range r.script.final {
		qs[i] = query{r: reg}
	}
	reqs := queryRequests(r.st.front.url, qs, 0, len(qs), 1)
	whole := r.oracle.Cube().Bounds()
	reqs = append(reqs, request{method: http.MethodGet, url: r.st.front.url + "/query?op=sum", first: len(qs), items: 1})
	for i := range reqs {
		r.attempted++
		status, err := lc.do(&reqs[i])
		if err != nil || status != http.StatusOK {
			r.failed++
			continue
		}
		vals, err := answers(lc.buf.Bytes(), false)
		reg := whole
		if i < len(qs) {
			reg = qs[i].r
		}
		if err != nil || vals[0] != r.oracle.Sum(reg) {
			r.failed++
		}
	}
}

// scrape reads one counter (or the sum of a labelled family) from the
// server's GET /metrics.
func scrape(base, name string) (float64, error) {
	lc := newLoadClient()
	defer lc.close()
	if status, err := lc.do(&request{method: http.MethodGet, url: base + "/metrics"}); err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	body := lc.buf.Bytes()
	total, found := 0.0, false
	for _, line := range bytes.Split(body, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(name)) {
			continue
		}
		rest := line[len(name):]
		if len(rest) == 0 || (rest[0] != ' ' && rest[0] != '{') {
			continue // a longer metric name sharing the prefix
		}
		v, err := strconv.ParseFloat(string(rest[bytes.LastIndexByte(rest, ' ')+1:]), 64)
		if err != nil {
			return 0, fmt.Errorf("metric %s: %w", name, err)
		}
		total, found = total+v, true
	}
	if !found {
		return 0, fmt.Errorf("metric %s not in /metrics", name)
	}
	return total, nil
}
