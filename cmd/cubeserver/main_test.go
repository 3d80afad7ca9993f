package main

import (
	"flag"
	"io"
	"testing"
	"time"

	"rangecube/internal/server"
)

// TestZeroFlagMeansOff pins the flags whose help promises "0 = off": the
// Options they map to reserve 0 for a default that is on, so each must reach
// the server as a negative value, while the flag's own default stays on. The
// defaults also mount GET /metrics, which the operator runbooks scrape. The
// probe, durability and fanout flags are gone: probes schedule themselves,
// an update asks for async durability itself, and the trees' fanout is 4.
func TestZeroFlagMeansOff(t *testing.T) {
	cases := []struct {
		flag string
		get  func(server.Options) float64
	}{
		{"trace-sample", func(o server.Options) float64 { return o.TraceSample }},
		{"slow-query", func(o server.Options) float64 { return float64(o.SlowQuery) }},
	}
	parse := func(args ...string) server.Options {
		t.Helper()
		fs := flag.NewFlagSet("cubeserver", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		options := serverFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return options()
	}
	defaults := parse()
	if !defaults.Metrics {
		t.Error("cubeserver's defaults do not mount /metrics")
	}
	for _, c := range cases {
		if got := c.get(defaults); got <= 0 {
			t.Errorf("-%s unset: option %v, want the flag's positive default", c.flag, got)
		}
		if got := c.get(parse("-" + c.flag + "=0")); got >= 0 {
			t.Errorf("-%s 0: option %v, want negative (off)", c.flag, got)
		}
	}
	// Explicit values pass through untouched.
	if o := parse("-slow-query=250ms"); o.SlowQuery != 250*time.Millisecond {
		t.Errorf("-slow-query 250ms: option %v", o.SlowQuery)
	}
	for _, gone := range []string{"shard-probe=1s", "degraded-probe=1s", "ingest-durability=async", "fanout=4"} {
		fs := flag.NewFlagSet("cubeserver", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		serverFlags(fs)
		if err := fs.Parse([]string{"-" + gone}); err == nil {
			t.Errorf("-%s still parses", gone)
		}
	}
}
