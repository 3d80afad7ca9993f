package telemetry

import (
	"math"
	"math/bits"
)

// NumBuckets is the fixed bucket count of a Histogram: bucket i holds the
// observations whose value has bit length i, i.e. bucket 0 holds v == 0 and
// bucket i ≥ 1 holds v in [2^(i-1), 2^i - 1]. Sixty-four buckets cover every
// non-negative int64, so no observation is ever out of range and the bucket
// index is one bits.Len64 — no search, no comparison ladder.
const NumBuckets = 64

// Histogram is a lock-free log2-bucketed histogram of non-negative int64
// observations (negative values clamp to zero). Recording is two atomic
// adds: the value's bucket and the running sum. All state is integer, so
// concurrent recording and a sequential run of the same observations
// produce bit-identical totals regardless of interleaving — the property
// the conformance par==seq tests rely on.
//
// Scale is a display-time multiplier applied by the exposition renderer and
// by Snapshot quantiles; the stored counts stay raw. A latency histogram
// records nanoseconds with Scale 1e-9 and exports seconds, which keeps the
// hot path integer-only.
type Histogram struct {
	buckets [NumBuckets]Counter
	sum     Counter
	count   Counter
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))%NumBuckets].v.Add(1)
	h.sum.v.Add(v)
	h.count.v.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram's counts, safe to
// inspect without racing recorders. Counts are raw (unscaled) values.
type HistogramSnapshot struct {
	Buckets [NumBuckets]int64
	Sum     int64
	Count   int64
}

// Snapshot copies the current counts. Individual loads are atomic; a
// snapshot taken while recorders run is some valid interleaving point per
// bucket, and one taken after recorders stop is exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].v.Load()
	}
	s.Sum = h.sum.v.Load()
	s.Count = h.count.v.Load()
	return s
}

// bucketBounds returns the inclusive [lo, hi] value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1)<<i - 1)
}

// bucketUpper returns the inclusive upper bound of bucket i (the value used
// as the Prometheus cumulative "le" label).
func bucketUpper(i int) float64 {
	_, hi := bucketBounds(i)
	return hi
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the recorded values in
// raw units, interpolating linearly inside the covering bucket. With log2
// buckets the estimate is within a factor of two of the true order
// statistic, which is the resolution the benchmark reports need — they
// compare engines an order of magnitude apart.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - prev) / float64(c)
			return lo + frac*(hi-lo)
		}
	}
	return math.Inf(1) // unreachable: cum reaches Count
}
