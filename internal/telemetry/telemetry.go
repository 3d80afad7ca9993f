// Package telemetry is the runtime metrics core of the serving stack: atomic
// counters and gauges, lock-free log2-bucketed histograms, and a registry
// that renders the Prometheus text exposition format — all from the standard
// library, so every other package in this repository can depend on it
// without pulling anything in.
//
// The paper evaluates its algorithms by "the number of elements required to
// answer the query" (§8); internal/metrics accounts that cost per query.
// This package is what makes those numbers — and the operational health of
// the WAL/shedding/caching machinery around them — observable on a live
// server rather than only in offline benches.
//
// Concurrency model: every primitive is safe for concurrent use and every
// hot-path operation is a single atomic add (histograms: two). Histogram
// state is pure integer counts, so a parallel run's totals are
// bit-identical to a sequential run's — the same determinism contract the
// kernel counters in internal/metrics follow.
//
// Nil receivers are valid everywhere and record nothing, mirroring
// metrics.Counter: code holding an unwired primitive (a WAL opened outside a
// server) pays one nil check per event.
package telemetry

import (
	"strconv"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is a caller bug and is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// formatFloat renders a float the way the exposition format expects:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
