package obs

import (
	"math/bits"
	"sync/atomic"
)

// Log-bucketed (HDR-style) histogram over non-negative int64 values.
//
// Bucketing: values below 2·subCount are recorded exactly (one bucket per
// value); above that, each power-of-two octave is split into subCount
// sub-buckets keyed by the top subBits mantissa bits, giving a constant
// relative resolution of 1/subCount (≈6% with subBits=4) across the whole
// 63-bit range. The scheme is the one HdrHistogram popularised: bucket
// index is computed from the value's bit length, no floating point, no
// search.
//
// Snapshots are deterministic: every recorded value maps to exactly one
// bucket, bucket counts and the int64 sum are order-independent under
// concurrent recording, and quantiles are derived from bucket boundaries
// alone — the same multiset of observations yields byte-identical
// count/min/max/mean/p50/p95/p99 regardless of recording interleaving.
const (
	subBits  = 4
	subCount = 1 << subBits // 16 sub-buckets per octave

	// exactLimit is the value below which buckets are exact.
	exactLimit = 2 * subCount

	// numBuckets covers bit lengths up to 63.
	numBuckets = exactLimit + (63-subBits)*subCount
)

// Histogram records int64 observations into log-spaced buckets. Negative
// values clamp into bucket zero (Min still records the true value).
type Histogram struct {
	unit    string
	count   int64
	sum     int64
	min     int64 // valid only when count > 0
	max     int64
	buckets [numBuckets]int64
}

// NewHistogram returns an empty histogram outside any registry: state a
// component owns and folds into a registry's histogram with Merge.
func NewHistogram(unit string) *Histogram {
	h := &Histogram{unit: unit}
	h.min = int64(^uint64(0) >> 1) // MaxInt64 sentinel until first observation
	return h
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < exactLimit {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= subBits+1
	mant := int((v >> uint(exp-subBits)) & (subCount - 1))
	return (exp-subBits)*subCount + subCount + mant
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < exactLimit {
		return int64(i)
	}
	exp := (i-subCount)/subCount + subBits
	mant := (i - subCount) % subCount
	return int64(subCount|mant) << uint(exp-subBits)
}

// bucketMid returns the deterministic representative value reported for
// bucket i: the exact value in the exact region, the bucket midpoint in
// the log region.
func bucketMid(i int) int64 {
	lo := bucketLow(i)
	if i < exactLimit {
		return lo
	}
	width := lo >> subBits // bucket width = low / subCount in the log region
	return lo + width/2
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	b := v
	if b < 0 {
		b = 0
	}
	atomic.AddInt64(&h.buckets[bucketIndex(b)], 1)
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, v)
	h.bound(v, v)
}

// Merge adds every observation recorded in o to h, as if h had observed
// them itself. o must be quiescent; h may be recorded into concurrently.
func (h *Histogram) Merge(o *Histogram) {
	n := atomic.LoadInt64(&o.count)
	if n == 0 {
		return
	}
	for i := range o.buckets {
		if c := atomic.LoadInt64(&o.buckets[i]); c != 0 {
			atomic.AddInt64(&h.buckets[i], c)
		}
	}
	atomic.AddInt64(&h.count, n)
	atomic.AddInt64(&h.sum, atomic.LoadInt64(&o.sum))
	h.bound(atomic.LoadInt64(&o.min), atomic.LoadInt64(&o.max))
}

// bound lowers h's minimum to lo and raises its maximum to hi where they
// extend the observed range.
func (h *Histogram) bound(lo, hi int64) {
	for {
		cur := atomic.LoadInt64(&h.min)
		if lo >= cur || atomic.CompareAndSwapInt64(&h.min, cur, lo) {
			break
		}
	}
	for {
		cur := atomic.LoadInt64(&h.max)
		if hi <= cur || atomic.CompareAndSwapInt64(&h.max, cur, hi) {
			break
		}
	}
}

// Unit returns the display unit.
func (h *Histogram) Unit() string { return h.unit }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.count) }

// HistSnapshot is a point-in-time summary of a histogram. Quantiles are
// bucket representatives, so they are deterministic for a given multiset
// of observations.
type HistSnapshot struct {
	Unit  string  `json:"unit,omitempty"`
	Count int64   `json:"count"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Snapshot summarises the histogram. Concurrent Observe calls may land
// between field loads; quiescent snapshots are exact.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Unit: h.unit, Count: atomic.LoadInt64(&h.count)}
	if s.Count == 0 {
		return s
	}
	s.Min = atomic.LoadInt64(&h.min)
	s.Max = atomic.LoadInt64(&h.max)
	s.Mean = float64(atomic.LoadInt64(&h.sum)) / float64(s.Count)
	buckets := make([]int64, numBuckets)
	for i := range h.buckets {
		buckets[i] = atomic.LoadInt64(&h.buckets[i])
	}
	s.P50 = quantile(buckets, s.Count, 0.50)
	s.P95 = quantile(buckets, s.Count, 0.95)
	s.P99 = quantile(buckets, s.Count, 0.99)
	s.clampQuantiles()
	return s
}

// clampQuantiles bounds the bucket-representative quantiles to the true
// observed range: a representative is the bucket midpoint, which can fall
// up to half a bucket width (~3%) outside [Min, Max] and read as p50 < min
// in rendered output.
func (s *HistSnapshot) clampQuantiles() {
	clamp := func(v int64) int64 {
		if v < s.Min {
			return s.Min
		}
		if v > s.Max {
			return s.Max
		}
		return v
	}
	s.P50, s.P95, s.P99 = clamp(s.P50), clamp(s.P95), clamp(s.P99)
}

// quantile returns the representative value of the bucket holding the
// q-quantile observation (rank ceil(q·n), 1-based).
func quantile(buckets []int64, n int64, q float64) int64 {
	if n <= 0 {
		return 0
	}
	rank := int64(q*float64(n) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i, c := range buckets {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(buckets) - 1)
}
