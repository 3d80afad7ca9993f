package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkFile is BENCHMARK.json at the root of the checkout.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err = dec.Decode(&bf)
	return bf, err
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the exclusive method), which is how the driver measures spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(2), at(3)
}

// selfCheck does what the driver does before it accepts the benchmark: two
// sets of k runs of every workload, every run a fresh process with its own
// seed, the sets interleaved (A B A B …) so drift hits both. For every
// end-to-end metric × workload it prints both medians, how much worse the
// second is, each set's interquartile spread as a share of its median, and
// the bound; it reports false when a spread (setup_s excepted, as in the
// driver) or the worsening exceeds the bound.
func selfCheck(root string, k int, seed int64, seconds int, quick bool) (bool, error) {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	// values[workload][set][metric] = one value per run
	values := map[string][2]map[string][]float64{}
	for _, s := range specs {
		values[s.name] = [2]map[string][]float64{{}, {}}
	}
	for i := 0; i < k; i++ {
		for _, s := range specs {
			for set := 0; set < 2; set++ {
				args := []string{"--workload", s.name, "--seed", strconv.FormatInt(seed+int64(set*k+i), 10), "--seconds", strconv.Itoa(seconds), "--trace", "0"}
				if quick {
					args = append(args, "--quick")
				}
				cmd := exec.Command(exe, args...)
				cmd.Dir = root
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return false, fmt.Errorf("%s %v: %w", exe, args, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var out outcome
				if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
					return false, fmt.Errorf("%v: last line is not a result: %w", args, err)
				}
				if !out.Correct || out.Failed != 0 {
					return false, fmt.Errorf("%v: %d of %d operations failed", args, out.Failed, out.Attempted)
				}
				for name, m := range out.Metrics {
					values[s.name][set][name] = append(values[s.name][set][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d %s set %c: %s\n", i+1, k, s.name, 'A'+set, lines[len(lines)-1])
			}
		}
	}

	ok := true
	fmt.Printf("| workload | metric | median A | median B | B worse by | IQR/median A | IQR/median B | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, s := range specs {
		for _, def := range bf.EndToEnd {
			a, b := values[s.name][0][def.Name], values[s.name][1][def.Name]
			if len(a) != k || len(b) != k {
				return false, fmt.Errorf("%s: metric %s reported in %d and %d of %d runs", s.name, def.Name, len(a), len(b), k)
			}
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (q3a-q1a)/ma, (q3b-q1b)/mb
			verdict := "ok"
			switch spread := max(spreadA, spreadB); {
			case worse > def.Bound:
				verdict, ok = "FAIL: sets disagree", false
			case def.Name == "setup_s": // the driver does not hold its spread to the bound
			case spread > def.Bound:
				verdict, ok = "FAIL: spread", false
			case spread > def.Bound/3:
				verdict = "ok (spread over a third of the bound)"
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				s.name, def.Name, ma, mb, 100*worse, 100*spreadA, 100*spreadB, 100*def.Bound, verdict)
		}
	}
	return ok, nil
}
