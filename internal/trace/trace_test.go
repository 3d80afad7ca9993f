package trace

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Root("x") != nil {
		t.Fatal("nil tracer minted a span")
	}
	if tr.StartRequest("x", func(string) string { return "" }) != nil {
		t.Fatal("nil tracer adopted a span")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer reported state")
	}
	if tr.SampleRate() != 0 || tr.StoreSize() != 0 || tr.SlowThreshold() != 0 {
		t.Fatal("nil tracer reported options")
	}
	var sp *Span
	sp.SetShard(1)
	sp.SetEngine("e")
	sp.SetStatus("200")
	sp.SetError("boom")
	sp.SetPartial()
	sp.ObserveCost(1, 2, 3)
	sp.Set("k", "v")
	sp.End()
	if sp.Recording() || sp.TraceID() != "" || sp.SpanID() != "" || sp.Duration() != 0 {
		t.Fatal("nil span reported state")
	}
	if sp.Child("c") != nil {
		t.Fatal("nil span minted a child")
	}
}

func TestDisabledTracer(t *testing.T) {
	if tr := New(Options{Sample: -1}); tr != nil {
		t.Fatal("negative sample should disable tracing entirely")
	}
}

func TestDefaults(t *testing.T) {
	tr := New(Options{})
	if tr.SampleRate() != DefaultSample {
		t.Fatalf("sample = %v, want %v", tr.SampleRate(), DefaultSample)
	}
	if tr.StoreSize() != DefaultStore {
		t.Fatalf("store = %d, want %d", tr.StoreSize(), DefaultStore)
	}
	if tr.SlowThreshold() != DefaultSlow {
		t.Fatalf("slow = %v, want %v", tr.SlowThreshold(), DefaultSlow)
	}
}

func TestRootChildLinkage(t *testing.T) {
	tr := New(Options{Sample: 1, Store: 16})
	root := tr.Root("GET /query")
	if !root.Recording() {
		t.Fatal("sample=1 root not recording")
	}
	child := root.Child("shard.rpc")
	child.SetShard(2)
	child.SetEngine("prefixsum")
	child.ObserveCost(10, 20, 30)
	child.End()
	root.SetStatus("200")
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var r, c SpanData
	for _, s := range spans {
		switch s.Name {
		case "GET /query":
			r = s
		case "shard.rpc":
			c = s
		}
	}
	if r.TraceID == "" || r.TraceID != c.TraceID {
		t.Fatalf("trace IDs differ: root %q child %q", r.TraceID, c.TraceID)
	}
	if c.ParentID != r.SpanID {
		t.Fatalf("child parent %q, want root span %q", c.ParentID, r.SpanID)
	}
	if r.ParentID != "" {
		t.Fatalf("root has parent %q", r.ParentID)
	}
	if c.Shard != 2 || c.Engine != "prefixsum" || c.Cells != 10 || c.Aux != 20 || c.Steps != 30 {
		t.Fatalf("child attrs wrong: %+v", c)
	}
	if r.Shard != -1 {
		t.Fatalf("root shard = %d, want -1", r.Shard)
	}
	if r.DurationNS < 0 || c.DurationNS < 0 {
		t.Fatal("negative duration")
	}
}

func TestSampledOutRootKeepsNothing(t *testing.T) {
	// Sample ~0: the root is allocated (for the late-keep checks) but a
	// clean fast request stores nothing, and children are never created.
	tr := New(Options{Sample: 1e-12, Store: 8})
	root := tr.Root("GET /query")
	if root == nil {
		t.Fatal("root not allocated")
	}
	if root.Recording() {
		t.Skip("improbable sampling draw")
	}
	if root.Child("c") != nil {
		t.Fatal("sampled-out root minted a child")
	}
	root.End()
	if got := len(tr.Snapshot()); got != 0 {
		t.Fatalf("kept %d spans, want 0", got)
	}
}

func TestAlwaysKeepSlowErrorPartial(t *testing.T) {
	for _, tc := range []struct {
		name string
		mark func(sp *Span)
	}{
		{"error", func(sp *Span) { sp.SetError("boom") }},
		{"partial", func(sp *Span) { sp.SetPartial() }},
		{"slow", func(sp *Span) { time.Sleep(2 * time.Millisecond) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(Options{Sample: 1e-12, Store: 8, Slow: time.Millisecond})
			root := tr.Root("GET /query")
			if root.Recording() {
				t.Skip("improbable sampling draw")
			}
			tc.mark(root)
			root.End()
			spans := tr.Snapshot()
			if len(spans) != 1 {
				t.Fatalf("kept %d spans, want 1 (late keep)", len(spans))
			}
		})
	}
}

func TestRingWraps(t *testing.T) {
	tr := New(Options{Sample: 1, Store: 4})
	for i := 0; i < 10; i++ {
		tr.Root("r").End()
	}
	if got := len(tr.Snapshot()); got != 4 {
		t.Fatalf("ring holds %d spans, want 4", got)
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New(Options{Sample: 1, Store: 8})
	sp := tr.Root("r")
	sp.End()
	d := sp.Duration()
	sp.End()
	if sp.Duration() != d {
		t.Fatal("second End changed the duration")
	}
	if len(tr.Snapshot()) != 1 {
		t.Fatal("second End stored the span again")
	}
}

func TestConcurrentKeepAndSnapshot(t *testing.T) {
	tr := New(Options{Sample: 1, Store: 32})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Root("r")
				sp.Child("c").End()
				sp.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := len(tr.Snapshot()); got != 32 {
		t.Fatalf("ring holds %d spans after 3200 keeps, want 32", got)
	}
}

func TestIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeefcafef00d, ^uint64(0)} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%x) = %q, want 16 hex digits", id, s)
		}
		got, ok := ParseID(s)
		if !ok || got != id {
			t.Fatalf("ParseID(FormatID(%x)) = %x, %v", id, got, ok)
		}
	}
	for _, bad := range []string{"", "xyz", "0000000000000000", "123", "zzzzzzzzzzzzzzzz"} {
		if _, ok := ParseID(bad); ok {
			t.Fatalf("ParseID(%q) accepted", bad)
		}
	}
}

func TestStartRequestAdoption(t *testing.T) {
	tr := New(Options{Sample: 1e-12, Store: 8})
	h := http.Header{}
	h.Set(HeaderTraceID, FormatID(0xabc))
	h.Set(HeaderParentSpan, FormatID(0xdef))
	sp := tr.StartRequest("POST /query/batch", h.Get)
	if !sp.Recording() {
		t.Fatal("adopted span must record regardless of the sample rate")
	}
	sp.End()
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("kept %d spans, want 1", len(spans))
	}
	if spans[0].TraceID != FormatID(0xabc) || spans[0].ParentID != FormatID(0xdef) {
		t.Fatalf("adoption lost linkage: %+v", spans[0])
	}
}

func TestInject(t *testing.T) {
	tr := New(Options{Sample: 1, Store: 8})
	sp := tr.Root("r")
	ctx := NewContext(WithRequestID(context.Background(), "rid-1"), sp)
	h := http.Header{}
	Inject(ctx, h)
	if h.Get(HeaderRequestID) != "rid-1" {
		t.Fatalf("request id not injected: %q", h.Get(HeaderRequestID))
	}
	if h.Get(HeaderTraceID) != sp.TraceID() || h.Get(HeaderParentSpan) != sp.SpanID() {
		t.Fatalf("trace headers not injected: %v", h)
	}
	if FromContext(ctx) != sp {
		t.Fatal("FromContext lost the span")
	}

	// A non-recording span must not leak trace headers downstream.
	h2 := http.Header{}
	Inject(NewContext(context.Background(), nil), h2)
	if len(h2) != 0 {
		t.Fatalf("nil span injected headers: %v", h2)
	}
}

func TestStats(t *testing.T) {
	ctx, st := WithStats(context.Background())
	if StatsFrom(ctx) != st {
		t.Fatal("StatsFrom lost the record")
	}
	st.AddFanout(3)
	st.AddFanout(2)
	st.SetPartial()
	st.AddTorn()
	if st.Fanout() != 5 || !st.Partial() || st.Torn() != 1 {
		t.Fatalf("stats wrong: %s torn=%d", st, st.Torn())
	}
	if got := st.String(); got != "shards=5 partial=true" {
		t.Fatalf("String() = %q", got)
	}
	var nilStats *Stats
	nilStats.AddFanout(1)
	nilStats.SetPartial()
	nilStats.AddTorn()
	if nilStats.Fanout() != 0 || nilStats.Partial() || nilStats.Torn() != 0 {
		t.Fatal("nil stats recorded")
	}
	if StatsFrom(context.Background()) != nil {
		t.Fatal("empty ctx returned stats")
	}
}
