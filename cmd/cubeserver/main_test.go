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
// defaults also mount GET /metrics, which the operator runbooks scrape.
func TestZeroFlagMeansOff(t *testing.T) {
	cases := []struct {
		flag string
		get  func(server.Options) float64
	}{
		{"shard-probe", func(o server.Options) float64 { return float64(o.ShardProbe) }},
		{"trace-sample", func(o server.Options) float64 { return o.TraceSample }},
		{"slow-query", func(o server.Options) float64 { return float64(o.SlowQuery) }},
		{"degraded-probe", func(o server.Options) float64 { return float64(o.DegradedProbe) }},
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
	if o := parse("-shard-probe=250ms"); o.ShardProbe != 250*time.Millisecond {
		t.Errorf("-shard-probe 250ms: option %v", o.ShardProbe)
	}
}
