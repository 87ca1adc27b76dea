package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

func sampleOf(xs []float64) *stats.Sample {
	s := stats.NewSample(len(xs))
	s.AddAll(xs...)
	return s
}

func median(xs []float64) float64 { return sampleOf(xs).Median() }

func mean(xs []float64) float64 { return sampleOf(xs).Mean() }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread printed
// here is the spread the acceptance driver computes from the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// ratio is a/b with 0 for an empty base, so a layer that did no work reports
// 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
