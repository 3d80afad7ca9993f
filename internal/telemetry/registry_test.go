package telemetry

import (
	"strconv"
	"strings"
	"testing"
)

// TestExpositionGolden pins the exact text exposition output for one of
// every metric kind: families sorted by name, children sorted by label
// values, histograms as trimmed cumulative buckets plus +Inf, _sum, _count.
// Scrapers parse this byte-for-byte; any drift here is a wire-format change.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "Total requests.").Add(3)
	rv := r.CounterVec("t_by_path_total", "Requests by path and status.", "path", "status")
	rv.With("/q", "200").Add(2)
	rv.With("/q", "500").Inc()
	rv.With("/u", "200").Inc()
	r.Gauge("t_inflight", "In-flight requests.").Add(2)
	r.GaugeFunc("t_entries", "Cache entries.", func() int64 { return 7 })
	r.GaugeVecFunc("t_bytes", "Bytes by part.", "part", func() map[string]int64 {
		return map[string]int64{"tree": 16, "cells": 8}
	})
	r.GaugeVecFunc("t_absent", "No samples.", "part", func() map[string]int64 { return nil })
	h := r.Histogram("t_cost", "Cost in elements.", 1)
	for _, v := range []int64{0, 1, 3, 100} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_absent No samples.
# TYPE t_absent gauge
# HELP t_by_path_total Requests by path and status.
# TYPE t_by_path_total counter
t_by_path_total{path="/q",status="200"} 2
t_by_path_total{path="/q",status="500"} 1
t_by_path_total{path="/u",status="200"} 1
# HELP t_bytes Bytes by part.
# TYPE t_bytes gauge
t_bytes{part="cells"} 8
t_bytes{part="tree"} 16
# HELP t_cost Cost in elements.
# TYPE t_cost histogram
t_cost_bucket{le="0"} 1
t_cost_bucket{le="1"} 2
t_cost_bucket{le="3"} 3
t_cost_bucket{le="7"} 3
t_cost_bucket{le="15"} 3
t_cost_bucket{le="31"} 3
t_cost_bucket{le="63"} 3
t_cost_bucket{le="127"} 4
t_cost_bucket{le="+Inf"} 4
t_cost_sum 104
t_cost_count 4
# HELP t_entries Cache entries.
# TYPE t_entries gauge
t_entries 7
# HELP t_inflight In-flight requests.
# TYPE t_inflight gauge
t_inflight 2
# HELP t_requests_total Total requests.
# TYPE t_requests_total counter
t_requests_total 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestScaledHistogramExposition: a nanosecond histogram with Scale 1e-9
// exports second-valued le bounds and sum; the strings must parse back to
// the scaled values.
func TestScaledHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "", 1e-9)
	h.Observe(1500) // 1.5µs: bucket 11, bounds [1024, 2047] ns

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	var top string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "t_seconds_bucket") && !strings.Contains(line, "+Inf") {
			top = line
		}
	}
	le := top[strings.Index(top, `le="`)+4:]
	le = le[:strings.Index(le, `"`)]
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("unparseable le %q: %v", le, err)
	}
	if want := 2047e-9; v < want*0.999 || v > want*1.001 {
		t.Fatalf("top le = %v, want ~%v", v, want)
	}

	if !strings.Contains(out, "t_seconds_count 1\n") {
		t.Fatalf("missing count:\n%s", out)
	}
	var sum string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "t_seconds_sum ") {
			sum = strings.TrimPrefix(line, "t_seconds_sum ")
		}
	}
	sv, err := strconv.ParseFloat(sum, 64)
	if err != nil || sv < 1.4e-6 || sv > 1.6e-6 {
		t.Fatalf("sum = %q, want ~1.5e-6 (err %v)", sum, err)
	}
}

// TestLabelEscaping: backslashes, quotes and newlines in label values must
// be escaped per the exposition grammar.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("t_esc_total", "", "v").With("a\\b\"c\nd").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if want := `t_esc_total{v="a\\b\"c\nd"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}
