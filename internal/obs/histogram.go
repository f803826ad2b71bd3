package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers [1ns, ~18min) in power-of-two buckets: bucket i holds
// observations in [2^i, 2^(i+1)) nanoseconds, with bucket 0 also catching
// <= 1ns and the last bucket catching everything above 2^39ns (~9.2min).
// Power-of-two bounds make the bucket index a single bits.Len64 — no
// search, no float math — at the cost of quantiles being ~2x-resolution
// estimates, which is plenty for p50/p95/p99 of I/O and sweep latencies.
const numBuckets = 40

// Histogram is a fixed-bucket latency histogram recording durations in
// nanoseconds. Recording is three atomic adds plus a CAS-maintained max;
// there is no locking and no allocation. A nil Histogram is a no-op.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns < 1 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// BucketLower returns the inclusive lower bound of bucket i in
// nanoseconds (exported for the DESIGN.md catalog and tests).
func BucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << uint(i)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	h.buckets[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start))
}

// HistogramSnapshot is a point-in-time digest: count, sum, observed max,
// and interpolated quantiles, all in nanoseconds.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	MaxNs int64 `json:"max_ns"`
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// Snapshot digests the histogram. Count is derived from the bucket counts
// read in one pass, so the quantiles are always consistent with it even
// while other goroutines record; sum and max are read independently and
// may run slightly ahead or behind the buckets. A nil histogram yields a
// zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	var counts [numBuckets]int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		s.Count += counts[i]
	}
	s.SumNs = h.sum.Load()
	s.MaxNs = h.max.Load()
	if s.Count == 0 {
		return s
	}
	s.P50Ns = quantile(&counts, s.Count, 0.50)
	s.P95Ns = quantile(&counts, s.Count, 0.95)
	s.P99Ns = quantile(&counts, s.Count, 0.99)
	return s
}

// quantile estimates the q-quantile by walking cumulative bucket counts
// and interpolating linearly inside the bucket containing the target
// rank. The estimate is bounded by the bucket's [2^i, 2^(i+1)) range, so
// it is within 2x of the true value by construction.
func quantile(counts *[numBuckets]int64, total int64, q float64) int64 {
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		if counts[i] == 0 {
			continue
		}
		if cum+counts[i] < rank {
			cum += counts[i]
			continue
		}
		lo := BucketLower(i)
		hi := int64(1) << uint(i+1)
		frac := float64(rank-cum) / float64(counts[i])
		return lo + int64(frac*float64(hi-lo))
	}
	return 0
}
