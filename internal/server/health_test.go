package server

import (
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"rangecube/internal/cube"
	"rangecube/internal/ingest"
)

// healthEvents are the transitions the checks below draw from: two distinct
// faults, a commit panic, a storage recovery and both drain toggles.
var healthEvents = []struct {
	name string
	e    event
}{
	{"fault a", event{cause: errors.New("fault a")}},
	{"fault b", event{cause: errors.New("fault b")}},
	{"commit panic", event{cause: errCommitPanicked}},
	{"recovery", event{recovered: true}},
	{"drain on", event{draining: true}},
	{"drain off", event{}},
}

// healthRules is the state the rules of next allow, kept from the event
// history rather than by a transition function: the first fault since the
// last recovery that took effect, whether a commit ever panicked, and the
// last drain toggle.
type healthRules struct {
	first    error
	panicked bool
	draining bool
}

func (r *healthRules) see(e event) {
	switch {
	case e.cause == errCommitPanicked:
		r.panicked = true
	case e.cause != nil && r.first == nil:
		r.first = e.cause
	case e.recovered && !r.panicked:
		r.first = nil
	case e.cause == nil && !e.recovered:
		r.draining = e.draining
	}
}

// cause is the reason the rules give: a commit panic names the episode,
// since only a restart ends it; otherwise the episode's first fault.
func (r healthRules) cause() error {
	if r.panicked {
		return errCommitPanicked
	}
	return r.first
}

// check holds h, reached from prev by e, to the rules.
func (r healthRules) check(prev, h health, e event) string {
	switch {
	case (h.cause != nil) != (r.panicked || r.first != nil):
		return "degraded without a cause, or a cause while writable"
	case h.cause != r.cause():
		return "the cause is not the episode's first fault (nor the commit panic)"
	case prev.halfApplied() && !h.halfApplied():
		return "a half-applied server stopped being half-applied"
	case e.cause == nil && !e.recovered && h.cause != prev.cause:
		return "a drain toggle changed the cause"
	case h.draining != r.draining:
		return "draining is not the last drain toggle"
	}
	return ""
}

// TestHealthNextExhaustive runs next over every sequence of six events from
// healthEvents (6^6 = 46,656 sequences, and with them every shorter prefix)
// and checks the rules after each step.
func TestHealthNextExhaustive(t *testing.T) {
	const steps = 6
	n := 1
	for range steps {
		n *= len(healthEvents)
	}
	for seq := range n {
		var h health
		var rules healthRules
		for i, code := 0, seq; i < steps; i, code = i+1, code/len(healthEvents) {
			e := healthEvents[code%len(healthEvents)].e
			prev := h
			h = next(h, e)
			rules.see(e)
			if msg := rules.check(prev, h, e); msg != "" {
				t.Fatalf("after %s: %s (cause %v, draining %v)", healthPath(seq, i+1), msg, h.cause, h.draining)
			}
		}
	}
}

// healthPath names the first k events of sequence seq.
func healthPath(seq, k int) string {
	names := make([]string, k)
	for i := range names {
		names[i] = healthEvents[seq%len(healthEvents)].name
		seq /= len(healthEvents)
	}
	return strings.Join(names, ", ")
}

// walOnlyServer boots an 8x8 server with a WAL and no snapshot path, so no
// storage loop runs and only the test moves its health.
func walOnlyServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewWithOptions(cube.New(cube.NewIntDimension("x", 0, 7), cube.NewIntDimension("y", 0, 7)), Options{
		BlockSize: 1, WALPath: filepath.Join(t.TempDir(), "updates.wal"), Metrics: true,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// TestHealthSampledOnServer drives 50 seeded six-event sequences through a
// real server and checks, after each step, that /readyz, the cube_degraded
// gauge and SubmitUpdates all report the state the rules give.
func TestHealthSampledOnServer(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for range 50 {
		s, ts := walOnlyServer(t)
		var rules healthRules
		var path []string
		for range 6 {
			ev := healthEvents[rng.Intn(len(healthEvents))]
			path = append(path, ev.name)
			if ev.e.cause == nil && !ev.e.recovered {
				s.SetDraining(ev.e.draining)
			} else {
				s.transition(ev.e)
			}
			rules.see(ev.e)
			reason := ""
			if c := rules.cause(); c != nil {
				reason = c.Error()
			}
			ready := reason == "" && !rules.draining
			var h Health
			code := get(t, ts, "/readyz", &h)
			if (code == http.StatusOK) != ready || h.Ready != ready || h.Degraded != (reason != "") || h.Reason != reason || h.Draining != rules.draining {
				t.Fatalf("after %s: /readyz %d %+v, want reason %q draining %v", strings.Join(path, ", "), code, h, reason, rules.draining)
			}
			if got := seriesValue(scrape(t, ts), "cube_degraded", ""); (got == 1) != (reason != "") {
				t.Fatalf("after %s: cube_degraded %v with reason %q", strings.Join(path, ", "), got, reason)
			}
			_, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{1, 1}, Delta: 1}}, false)
			if reason == "" && err != nil || reason != "" && (!errors.Is(err, ErrDegraded) || !strings.HasSuffix(err.Error(), ": "+reason)) {
				t.Fatalf("after %s: SubmitUpdates returned %v, want reason %q", strings.Join(path, ", "), err, reason)
			}
		}
	}
}

// TestDegradedReasonIsFirstFault: a second fault in one degraded episode
// does not replace the first in /readyz, in SubmitUpdates' error or in the
// 503 body of POST /update.
func TestDegradedReasonIsFirstFault(t *testing.T) {
	s, ts := walOnlyServer(t)
	s.transition(event{cause: errors.New("first fault")})
	s.transition(event{cause: errors.New("second fault")})
	var h Health
	if code := get(t, ts, "/readyz", &h); code != http.StatusServiceUnavailable || h.Reason != "first fault" {
		t.Fatalf("/readyz: %d reason %q, want 503 reason \"first fault\"", code, h.Reason)
	}
	if _, err := s.SubmitUpdates([]ingest.Update{{Coords: []int{0, 0}, Delta: 1}}, true); err == nil || !strings.HasSuffix(err.Error(), ": first fault") {
		t.Fatalf("SubmitUpdates: %v, want the reason \"first fault\"", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json", strings.NewReader(`{"updates":[{"coords":[0,0],"delta":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), ": first fault") || strings.Contains(string(body), "second") {
		t.Fatalf("POST /update: %d %s, want 503 with the reason \"first fault\"", resp.StatusCode, body)
	}
}
