package main

import (
	"math"
	"testing"
)

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs {
		q := s.quick()
		a, again, other := newScript(q, 7), newScript(q, 7), newScript(q, 8)
		if a.hash != again.hash {
			t.Errorf("%s: seed 7 gave ops_sha256 %s, then %s", s.name, a.hash, again.hash)
		}
		if a.hash == other.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same ops_sha256 %s", s.name, a.hash)
		}
	}
}

// TestQuickRuns runs every workload at -quick size, end to end and traced,
// and holds the output to BENCHMARK.json: the same workloads, and exactly the
// declared metrics, each with its declared unit and a finite value. The
// traced run is taken twice: counts marked exact must repeat.
func TestQuickRuns(t *testing.T) {
	root, err := checkoutRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}

	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	declaredE2E := map[string]string{}
	for _, m := range bf.EndToEnd {
		declaredE2E[m.Name] = m.Unit
	}
	declaredLayer := map[string]string{}
	for _, m := range bf.PerLayer {
		declaredLayer[m.Name] = m.Unit
	}
	if len(declaredE2E) != len(endToEnd) || len(declaredLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics, the benchmark has %d and %d",
			len(declaredE2E), len(declaredLayer), len(endToEnd), len(perLayer))
	}

	check := func(t *testing.T, out outcome, declared map[string]string) {
		t.Helper()
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("correct=%t, %d of %d operations failed", out.Correct, out.Failed, out.Attempted)
		}
		if len(out.Metrics) != len(declared) {
			t.Errorf("run printed %d metrics, BENCHMARK.json declares %d", len(out.Metrics), len(declared))
		}
		for name, unit := range declared {
			m, ok := out.Metrics[name]
			switch {
			case !ok:
				t.Errorf("declared metric %s was not printed", name)
			case m.Unit != unit:
				t.Errorf("metric %s has unit %q, declared %q", name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("metric %s is %v", name, m.Value)
			}
		}
	}

	for i, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			if bf.Workloads[i].Name != s.name || bf.Workloads[i].Why != s.why {
				t.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark has %q (%q)",
					i, bf.Workloads[i].Name, bf.Workloads[i].Why, s.name, s.why)
			}
			cfg := config{spec: s.quick(), seed: 2026, seconds: 1, quick: true, root: root}
			_, out, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, out, declaredE2E)
			for name, m := range out.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}

			cfg.trace = true
			_, first, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, first, declaredLayer)
			_, second, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayer {
				if d.exact && first.Metrics[d.name].Value != second.Metrics[d.name].Value {
					t.Errorf("%s should repeat exactly for a fixed seed: %v, then %v",
						d.name, first.Metrics[d.name].Value, second.Metrics[d.name].Value)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
