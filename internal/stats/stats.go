// Package stats provides the summary statistics used throughout the
// measurement study and evaluation: empirical CDFs/PDFs, percentiles,
// histograms, Jain's fairness index, and streaming mean/variance.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates float64 observations for offline summarisation.
// The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample pre-sized for n observations.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll records a batch of observations.
func (s *Sample) AddAll(xs ...float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the sorted observations. The returned slice is owned by the
// Sample and must not be modified.
func (s *Sample) Values() []float64 {
	s.sort()
	return s.xs
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Sum returns the sum of observations.
func (s *Sample) Sum() float64 {
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum
}

// Variance returns the population variance, or 0 for fewer than two samples.
func (s *Sample) Variance() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n)
}

// Stddev returns the population standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// CDF returns the empirical cumulative probability P(X <= x).
func (s *Sample) CDF(x float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	s.sort()
	// Number of values <= x.
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(n)
}

// Summary is a compact distribution description.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, P10, P25, P50 float64
	P75, P90, P99, Max float64
}

// Summarize computes a Summary of the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N: s.N(), Mean: s.Mean(), Std: s.Stddev(),
		Min: s.Min(), P10: s.Percentile(10), P25: s.Percentile(25),
		P50: s.Median(), P75: s.Percentile(75), P90: s.Percentile(90),
		P99: s.Percentile(99), Max: s.Max(),
	}
}

func (sm Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g std=%.3g min=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g",
		sm.N, sm.Mean, sm.Std, sm.Min, sm.P50, sm.P90, sm.P99, sm.Max)
}

// JainFairness computes Jain's fairness index over per-entity allocations:
// (sum x)^2 / (n * sum x^2). It is 1.0 for perfectly equal allocations and
// approaches 1/n when one entity dominates. Empty or all-zero input yields 0.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Histogram counts observations into fixed-width bins over [lo, hi). Values
// outside the range are clamped into the first/last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins bins spanning [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int { return h.total }

// BinWidth returns the width of one bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// PDF returns the fraction of observations in each bin.
func (h *Histogram) PDF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Mode returns the center of the most populated bin.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return h.BinCenter(best)
}

// Counter tallies string-keyed categorical observations, e.g. access
// categories or channel widths.
type Counter struct {
	counts map[string]int
	total  int
}

// NewCounter returns an empty Counter.
func NewCounter() *Counter { return &Counter{counts: map[string]int{}} }

// Add increments key by one.
func (c *Counter) Add(key string) { c.AddN(key, 1) }

// AddN increments key by n.
func (c *Counter) AddN(key string, n int) {
	c.counts[key] += n
	c.total += n
}

// Total returns the total count across keys.
func (c *Counter) Total() int { return c.total }

// Count returns the count for key.
func (c *Counter) Count(key string) int { return c.counts[key] }

// Fraction returns the fraction of the total attributed to key.
func (c *Counter) Fraction(key string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.counts[key]) / float64(c.total)
}

// Keys returns the keys in deterministic (sorted) order.
func (c *Counter) Keys() []string {
	keys := make([]string, 0, len(c.counts))
	for k := range c.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (c *Counter) String() string {
	var b strings.Builder
	for i, k := range c.Keys() {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.1f%%", k, 100*c.Fraction(k))
	}
	return b.String()
}
