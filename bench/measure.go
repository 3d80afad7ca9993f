package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func floats(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

// span is one timed call, as the trace file records it. Spans of one
// replayed operation share op; parent names the rung above.
type span struct {
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced code paths carry no branches.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) add(op int, layer, name, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Op: op, Layer: layer, Name: name, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// time records fn's run as one span.
func (r *recorder) time(op int, layer, name, parent string, fn func()) {
	if r == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	r.add(op, layer, name, parent, start, time.Now())
}

// span is time for a call that can fail.
func (r *recorder) span(op int, layer, name, parent string, fn func() error) (err error) {
	r.time(op, layer, name, parent, func() { err = fn() })
	return err
}

// durations returns the length in ns of every span called name, in order.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rssPeakMiB is the process's peak resident set so far.
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return float64(ru.Maxrss) / 1024            // Linux reports KiB
}

// mallocs is the process's lifetime heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// environment describes where a run was taken; every run prints it.
func environment(root string, s spec, seed int64, warmups, rounds int) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"commit":     commit(root),
		"data_dir":   dataRoot(root),
		"disk":       "write and fsync cost a fixed delay (2 ms on mixed-slowdisk, 0 elsewhere); the real fsync is skipped",
		"seed":       seed,
		"counts": map[string]any{
			"cube_side": s.n, "clients": s.clients, "batch": s.batch, "requests_per_client": s.reqsPerClient,
			"update_requests": s.updReqs, "update_deltas": s.updDeltas, "update_period_ms": s.updPeriod.Milliseconds(),
			"warmup_rounds": warmups, "measured_rounds": rounds, "timed_boots": s.boots,
		},
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// commit is the checkout's HEAD, or "unknown" outside a git repository (the
// driver's checkout is not one).
func commit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root)) // never a repository above the checkout
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
