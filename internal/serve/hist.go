package serve

import (
	"math"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of the latency histogram: power-of-two
// microsecond buckets, bucket i covering [2^i, 2^(i+1)) µs, so the range
// spans 1µs to ~1.2 hours — more than any plausible request latency.
const histBuckets = 32

// Hist is a lock-free log-bucketed latency histogram. Record and quantile
// reads may race benignly (a snapshot is taken bucket by bucket); the
// histogram is for operator visibility, not accounting.
type Hist struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 1 && b < histBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// Record adds one observation.
func (h *Hist) Record(d time.Duration) {
	h.counts[bucketOf(d)].Add(1)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.total.Load() }

// Quantile returns an upper bound on the q-quantile (q in (0,1]): the
// upper edge of the bucket holding the q-th observation. Zero when empty.
func (h *Hist) Quantile(q float64) time.Duration {
	var snap [histBuckets]int64
	var total int64
	for i := range snap {
		snap[i] = h.counts[i].Load()
		total += snap[i]
	}
	if total == 0 {
		return 0
	}
	// Nearest-rank convention: the q-quantile is observation ceil(q*n).
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range snap {
		seen += c
		if seen >= rank {
			return time.Duration(int64(1)<<uint(i+1)) * time.Microsecond
		}
	}
	return time.Duration(int64(1)<<histBuckets) * time.Microsecond
}

// LatencyInfo carries the request-latency histogram quantiles (µs).
type LatencyInfo struct {
	Count int64 `json:"count"`
	P50us int64 `json:"p50_us"`
	P90us int64 `json:"p90_us"`
	P99us int64 `json:"p99_us"`
}

// Latency snapshots the histogram's count and quantiles for /statsz.
func (h *Hist) Latency() LatencyInfo {
	return LatencyInfo{
		Count: h.Count(),
		P50us: h.Quantile(0.50).Microseconds(),
		P90us: h.Quantile(0.90).Microseconds(),
		P99us: h.Quantile(0.99).Microseconds(),
	}
}
