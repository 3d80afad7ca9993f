// Command cubebench regenerates the paper's tables and figures as text
// tables (the experiment ids match DESIGN.md §3 and EXPERIMENTS.md):
//
//	cubebench                       # run everything
//	cubebench -exp figure11         # one experiment
//	cubebench -exp figure11 -quick  # skip the measured columns / shrink sizes
//
// Experiments: figure1, figure11, figure12, figure13, figure14, paging,
// bounds, theorem3, rangesum, rangemax, update, sparse, chaos.
//
// Every experiment but chaos is deterministic: cubebench_output.txt at the
// repository root is their full-size output, and a test in this package
// holds the command to it byte for byte.
//
// The serving stack's performance is measured by bench/ (see
// bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rangecube/internal/harness"
)

type experiment struct {
	id  string
	run func() harness.Table
}

// experiments lists every experiment in the order cubebench runs them.
func experiments(quick bool) []experiment {
	n := 512
	trials := 4000
	if quick {
		n = 128
		trials = 500
	}
	return []experiment{
		{"figure1", harness.Figure1},
		{"figure11", func() harness.Table { return harness.Figure11(!quick) }},
		{"figure12", harness.Figure12},
		{"figure13", harness.GreedyCuboids},
		{"figure14", harness.Figure14},
		{"paging", harness.Paging},
		{"bounds", func() harness.Table { return harness.Bounds(n, 16) }},
		{"theorem3", func() harness.Table { return harness.Theorem3(4*n, trials) }},
		{"rangesum", func() harness.Table { return harness.RangeSumMethods(n, 16) }},
		{"rangemax", func() harness.Table { return harness.RangeMaxMethods(n, 8) }},
		{"update", func() harness.Table { return harness.UpdateSweep(n/2, []int{1, 4, 16, 64}) }},
		{"sparse", func() harness.Table { return harness.SparseExperiment(n / 2) }},
		{"chaos", func() harness.Table {
			dur := 3 * time.Second
			if quick {
				dur = 500 * time.Millisecond
			}
			tab, rec := harness.Chaos(12, 4, 3, dur)
			if len(rec.Failures) > 0 {
				tab.Fprint(os.Stdout)
				for _, f := range rec.Failures {
					fmt.Fprintf(os.Stderr, "cubebench: chaos invariant violated: %s\n", f)
				}
				os.Exit(1)
			}
			return tab
		}},
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment id (all, figure1, figure11, figure12, figure13, figure14, paging, bounds, theorem3, rangesum, rangemax, update, sparse, chaos)")
	quick := flag.Bool("quick", false, "smaller sizes, skip measured Figure 11 columns")
	flag.Parse()

	ran := 0
	for _, e := range experiments(*quick) {
		if *exp != "all" && *exp != e.id {
			continue
		}
		tab := e.run()
		tab.Fprint(os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "cubebench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
