package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSampleBasics(t *testing.T) {
	s := NewSample(8)
	s.AddAll(4, 1, 3, 2, 5)
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Median() != 3 {
		t.Fatalf("Median = %v", s.Median())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if !almostEq(s.Variance(), 2, 1e-12) {
		t.Fatalf("Variance = %v", s.Variance())
	}
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Median() != 0 || s.Min() != 0 || s.Max() != 0 || s.CDF(1) != 0 {
		t.Fatal("empty sample should return zeros")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := NewSample(4)
	s.AddAll(10, 20, 30, 40)
	if got := s.Percentile(50); !almostEq(got, 25, 1e-9) {
		t.Fatalf("p50 = %v, want 25", got)
	}
	if got := s.Percentile(0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 40 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestCDF(t *testing.T) {
	s := NewSample(4)
	s.AddAll(1, 2, 3, 4)
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := s.CDF(c.x); !almostEq(got, c.want, 1e-9) {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestJainFairness(t *testing.T) {
	if got := JainFairness([]float64{5, 5, 5, 5}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("equal allocations: %v", got)
	}
	// One dominant entity approaches 1/n.
	if got := JainFairness([]float64{100, 0, 0, 0}); !almostEq(got, 0.25, 1e-12) {
		t.Fatalf("dominant entity: %v", got)
	}
	if got := JainFairness(nil); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	if got := JainFairness([]float64{0, 0}); got != 0 {
		t.Fatalf("all zero: %v", got)
	}
}

// Property: Jain's index is scale-invariant and within (0, 1].
func TestQuickJainProperties(t *testing.T) {
	f := func(xs []float64, scale float64) bool {
		var pos []float64
		for _, x := range xs {
			if x > 0 && !math.IsInf(x, 0) && x < 1e100 {
				pos = append(pos, x)
			}
		}
		if len(pos) == 0 || scale <= 0 || math.IsInf(scale, 0) || scale > 1e50 {
			return true
		}
		j := JainFairness(pos)
		if j <= 0 || j > 1+1e-9 {
			return false
		}
		scaled := make([]float64, len(pos))
		for i, x := range pos {
			scaled[i] = x * scale
		}
		return almostEq(j, JainFairness(scaled), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{0.5, 1, 3, 5, 7, 9, 11, -2} {
		h.Add(v)
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d", h.Total())
	}
	// -2 clamps into the first bin, 11 into the last.
	if h.Counts[0] != 3 {
		t.Fatalf("first bin = %d, want 3", h.Counts[0])
	}
	if h.Counts[4] != 2 {
		t.Fatalf("last bin = %d, want 2", h.Counts[4])
	}
	sum := 0.0
	for _, p := range h.PDF() {
		sum += p
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Fatalf("PDF sums to %v", sum)
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 50; i++ {
		h.Add(42)
	}
	h.Add(7)
	if got := h.Mode(); got != 45 { // center of the 40-50 bin
		t.Fatalf("Mode = %v, want 45", got)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Add("a")
	c.AddN("b", 3)
	if c.Total() != 4 {
		t.Fatalf("total = %d", c.Total())
	}
	if !almostEq(c.Fraction("b"), 0.75, 1e-12) {
		t.Fatalf("Fraction(b) = %v", c.Fraction("b"))
	}
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
	if NewCounter().Fraction("x") != 0 {
		t.Fatal("empty counter fraction should be 0")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		s := NewSample(len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev || v < s.Min() || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryString(t *testing.T) {
	s := NewSample(3)
	s.AddAll(1, 2, 3)
	if got := s.Summarize().String(); got == "" {
		t.Fatal("empty summary string")
	}
}
