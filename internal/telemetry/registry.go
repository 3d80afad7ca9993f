package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Registry holds named metric families and renders them in the Prometheus
// text exposition format (version 0.0.4), the format every scraper speaks.
// Registration happens at construction time on one goroutine; rendering and
// recording may race freely afterwards.
//
// A nil *Registry is valid: every constructor returns nil primitives, which
// record nothing, through the exact same code paths.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric with its children (one per label-value tuple;
// unlabeled metrics have a single child with an empty key).
type family struct {
	name, help, typ string // typ: "counter", "gauge" or "histogram"
	scale           float64
	labels          []string

	mu       sync.Mutex
	children map[string]*child
	collect  func() map[string]int64 // GaugeVecFunc callback; nil otherwise
}

type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fn          func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on invalid or duplicate names — both are
// programmer errors caught by the first test that touches the registry.
func (r *Registry) register(name, help, typ string, scale float64, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %s", l, name))
		}
	}
	f := &family{name: name, help: help, typ: typ, scale: scale, labels: labels,
		children: make(map[string]*child)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.families[name] = f
	return f
}

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, "counter", 1, nil)
	c := &child{counter: &Counter{}}
	f.children[""] = c
	return c.counter
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, "gauge", 1, nil)
	c := &child{gauge: &Gauge{}}
	f.children[""] = c
	return c.gauge
}

// CounterFunc registers a counter whose value is read from fn at render
// time — for sources that already keep their own monotonic counts (the
// shard router's query and remote-engine totals) so the numbers are never
// accounted twice.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	f := r.register(name, help, "counter", 1, nil)
	f.children[""] = &child{fn: fn}
}

// GaugeFunc registers a gauge whose value is read from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	f := r.register(name, help, "gauge", 1, nil)
	f.children[""] = &child{fn: fn}
}

// GaugeVecFunc registers a one-label gauge family whose samples are read from
// fn at render time: one per key of the returned map (the label value), none
// for a nil map — for a source whose set of children is itself live state.
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() map[string]int64) {
	if r == nil {
		return
	}
	r.register(name, help, "gauge", 1, []string{label}).collect = fn
}

// Histogram registers and returns an unlabeled histogram. scale multiplies
// bucket bounds and the sum at exposition time (1 for unitless values,
// 1e-9 for nanosecond recordings exported as seconds).
func (r *Registry) Histogram(name, help string, scale float64) *Histogram {
	if r == nil {
		return nil
	}
	if scale == 0 {
		scale = 1
	}
	f := r.register(name, help, "histogram", scale, nil)
	c := &child{hist: &Histogram{}}
	f.children[""] = c
	return c.hist
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, "counter", 1, labels)}
}

// HistogramVec registers a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, scale float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if scale == 0 {
		scale = 1
	}
	return &HistogramVec{f: r.register(name, help, "histogram", scale, labels)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// childFor returns (creating if needed) the child for one label-value tuple.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		switch f.typ {
		case "counter":
			c.counter = &Counter{}
		case "histogram":
			c.hist = &Histogram{}
		}
		f.children[key] = c
	}
	return c
}

// With returns the counter for the given label values, creating it on first
// use. Hot paths should hold the returned pointer rather than calling With
// per event when the labels are fixed.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.childFor(values).counter
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.childFor(values).hist
}

// WriteText renders every registered family in the text exposition format:
// families sorted by name, children sorted by label values, histograms as
// cumulative le-buckets (trimmed past the highest occupied bucket) plus
// _sum and _count. The output is deterministic for fixed metric state.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, n := range names {
		if err := fams[n].write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (f *family) write(w *bufio.Writer) error {
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	if f.collect != nil {
		vals := f.collect()
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, []string{k}, "", ""), vals[k])
		}
		return nil
	}

	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*child, len(keys))
	for i, k := range keys {
		kids[i] = f.children[k]
	}
	f.mu.Unlock()

	for _, c := range kids {
		labels := labelString(f.labels, c.labelValues, "", "")
		switch {
		case c.fn != nil:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labels, c.fn())
		case c.counter != nil:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labels, c.counter.Value())
		case c.gauge != nil:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labels, c.gauge.Value())
		case c.hist != nil:
			writeHistogram(w, f, c)
		}
	}
	return nil
}

// writeHistogram renders one histogram child: cumulative buckets up to the
// highest occupied bucket, the mandatory +Inf bucket, then sum and count.
func writeHistogram(w *bufio.Writer, f *family, c *child) {
	s := c.hist.Snapshot()
	top := 0
	for i, n := range s.Buckets {
		if n != 0 {
			top = i
		}
	}
	cum := int64(0)
	for i := 0; i <= top; i++ {
		cum += s.Buckets[i]
		le := formatFloat(bucketUpper(i) * f.scale)
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.labelValues, "le", le), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.labelValues, "le", "+Inf"), s.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""), formatFloat(float64(s.Sum)*f.scale))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), s.Count)
}

// labelString renders {a="x",b="y"} (plus an optional extra pair, used for
// le), or the empty string when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

// Handler serves the exposition over HTTP — the body of GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
