package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestWelfordAgainstDirect(t *testing.T) {
	cases := [][]float64{
		{1},
		{1, 1, 1, 1},
		{1, 2, 3, 4, 5},
		{-3.5, 2.25, 0, 100, -7},
		{1e9, 1e9 + 1, 1e9 + 2},
	}
	for _, xs := range cases {
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		variance := 0.0
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(len(xs))
		if !almostEqual(w.Mean(), mean, 1e-6) {
			t.Errorf("mean(%v) = %v, want %v", xs, w.Mean(), mean)
		}
		if !almostEqual(w.Variance(), variance, 1e-6) {
			t.Errorf("variance(%v) = %v, want %v", xs, w.Variance(), variance)
		}
	}
}

func TestWelfordCounts(t *testing.T) {
	var w Welford
	if w.n != 0 || w.Mean() != 0 || w.Variance() != 0 {
		t.Fatalf("zero value not neutral: %+v", w)
	}
	w.Add(5)
	if w.n != 1 || w.Mean() != 5 {
		t.Fatalf("after one add: n=%d mean=%v", w.n, w.Mean())
	}
	if w.Variance() != 0 {
		t.Fatalf("variance of single observation must be 0")
	}
}

func TestWelfordSampleVariance(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if !almostEqual(w.Variance(), 4, 1e-9) {
		t.Errorf("population variance = %v, want 4", w.Variance())
	}
}

func TestNormalInverse(t *testing.T) {
	// Known quantiles of the standard normal distribution.
	for _, tt := range []struct{ p, want float64 }{
		{0.5, 0},
		{0.75, 0.6744897501960817},
		{0.975, 1.959963984540054},
		{0.25, -0.6744897501960817},
		{0.9, 1.2815515655446004},
	} {
		if got := NormalInverse(tt.p); !almostEqual(got, tt.want, 1e-8) {
			t.Errorf("NormalInverse(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsInf(NormalInverse(0), -1) || !math.IsInf(NormalInverse(1), 1) {
		t.Error("boundary values should map to infinities")
	}
	if !math.IsNaN(NormalInverse(-0.5)) || !math.IsNaN(NormalInverse(math.NaN())) {
		t.Error("out-of-domain values should map to NaN")
	}
}

func TestNormalInverseRoundTrip(t *testing.T) {
	// CDF(NormalInverse(p)) == p via erf.
	cdf := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	for p := 0.001; p < 1; p += 0.013 {
		x := NormalInverse(p)
		if !almostEqual(cdf(x), p, 1e-7) {
			t.Errorf("cdf(inv(%v)) = %v", p, cdf(x))
		}
	}
}
