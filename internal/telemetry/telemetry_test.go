package telemetry

import (
	"math"
	"sync"
	"testing"
)

// TestHistogramConcurrentEqualsSequential: the same observations recorded
// from many goroutines produce bit-identical buckets, sum and count to a
// sequential run — the lock-free path loses nothing under contention.
// Run under -race this is also the data-race proof for the hot path.
func TestHistogramConcurrentEqualsSequential(t *testing.T) {
	const workers = 8
	const perWorker = 20000

	value := func(w, i int) int64 {
		// Deterministic spread over many buckets, including 0 and large values.
		return int64((w*perWorker+i)%3) * (int64(i%40)*int64(i) + 1)
	}

	var par Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				par.Observe(value(w, i))
			}
		}(w)
	}
	wg.Wait()

	var seq Histogram
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			seq.Observe(value(w, i))
		}
	}

	if got, want := par.Snapshot(), seq.Snapshot(); got != want {
		t.Fatalf("concurrent snapshot differs from sequential:\n got %+v\nwant %+v", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, -5, 1, 2, 3, 4, 7, 8, 1 << 40} {
		h.Observe(v)
	}
	s := h.Snapshot()
	wantBuckets := map[int]int64{0: 2, 1: 1, 2: 2, 3: 2, 4: 1, 41: 1}
	for i, n := range s.Buckets {
		if n != wantBuckets[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, wantBuckets[i])
		}
	}
	if s.Count != 9 {
		t.Errorf("count = %d, want 9", s.Count)
	}
	if want := int64(0 + 0 + 1 + 2 + 3 + 4 + 7 + 8 + 1<<40); s.Sum != want {
		t.Errorf("sum = %d, want %d", s.Sum, want)
	}
}

// TestQuantile: on a uniform 1..1000 recording the interpolated median lands
// near 500 — well within the factor-of-two resolution of log2 buckets.
func TestQuantile(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 < 250 || p50 > 1000 {
		t.Errorf("p50 = %v, want within a factor of two of 500", p50)
	}
	if p100 := s.Quantile(1); p100 < 512 || p100 > 1023 {
		t.Errorf("p100 = %v, want inside the top occupied bucket [512,1023]", p100)
	}
	if p0 := s.Quantile(0); p0 < 1 || p0 > 1.5 {
		t.Errorf("p0 = %v, want ~1", p0)
	}
	if math.IsInf(s.Quantile(0.99), 1) || math.IsNaN(s.Quantile(0.99)) {
		t.Errorf("p99 must be finite")
	}
	var empty Histogram
	if got := empty.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

// TestNilSafety: a nil registry yields nil primitives, and every operation
// on them is a no-op — the telemetry-disabled server takes exactly these
// paths.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", 1e-9)
	cv := r.CounterVec("xv_total", "", "a")
	hv := r.HistogramVec("xv_seconds", "", 1e-9, "a")
	r.CounterFunc("xf_total", "", func() int64 { return 1 })
	r.GaugeFunc("xf", "", func() int64 { return 1 })
	r.GaugeVecFunc("xvf", "", "a", func() map[string]int64 { return nil })

	c.Inc()
	c.Add(5)
	g.Inc()
	g.Dec()
	h.Observe(10)
	cv.With("v").Inc()
	hv.With("v").Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil primitives must record nothing")
	}
	if err := r.WriteText(nil); err != nil {
		t.Fatalf("nil registry WriteText: %v", err)
	}
}

func TestValidNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name must panic")
		}
	}()
	NewRegistry().Counter("9bad", "")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name must panic")
		}
	}()
	r.Gauge("dup_total", "")
}
