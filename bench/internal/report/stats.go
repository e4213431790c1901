// Package report holds what the benchmark runner, the tracer and the
// comparison tool share: the summary statistics, the result-file
// layout, the metric list read from BENCHMARK.json, and span
// self-time arithmetic.
package report

import (
	"math"
	"sort"
)

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value (the mean of the two middle values
// for an even count), or NaN for no values.
func Median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so spreads computed here match spreads computed
// from the same values in Python. A single value is its own quartiles.
func Quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return values[0], values[0]
	}
	s := sorted(values)
	m := n + 1
	cut := func(i int) float64 {
		// Python clamps j first and then derives delta from the clamped
		// j, which extrapolates beyond the extremes for tiny samples.
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100):
// the smallest value with at least p% of the values at or below it.
// +Inf values (failed requests) sort last, as they should.
func Percentile(values []float64, p float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(values)
	// The epsilon keeps decimal percentiles such as 99.9, which float64
	// holds slightly high, from rounding up to the next rank.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// tailPercentiles are the candidates TailPercentile picks from, in
// hundredths of a percent so the arithmetic stays exact.
var tailPercentiles = []int{9999, 9990, 9900, 9000, 5000}

// TailPercentile returns the highest of p99.99, p99.9, p99, p90 and p50
// that has at least ten of n samples beyond it, so a reported tail is
// never one or two unlucky samples. It returns 0 when n < 20, where not
// even the median has ten samples above it.
func TailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n*(10000-p) >= 10*10000 {
			return float64(p) / 100
		}
	}
	return 0
}
