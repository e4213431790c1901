// Package stats provides small numeric helpers shared by the mining and
// evaluation packages: running moments, simple descriptive statistics and
// a deterministic pseudo-random source used throughout the repository.
//
// Role in the methodology: cross-cutting numeric support — the RNG is
// the root of the repository's determinism guarantee (DESIGN.md §8):
// every stochastic component (test-case generation, fold assignment,
// sampling transforms) derives a private stream from seed and position.
// Concurrency: an *RNG and a Welford accumulator are single-goroutine
// objects — derive one per work item rather than sharing; the pure
// functions (NormalInverse etc.) are safe everywhere.
package stats

import (
	"errors"
	"sort"
)

// ErrEmpty is returned by descriptive statistics that are undefined on an
// empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Welford accumulates mean and variance in a single pass using Welford's
// online algorithm. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean returns the running mean, or 0 if no observations were added.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (dividing by n), matching the
// paper's per-fold variance column. It returns 0 for fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Variance(), nil
}

// Median returns the median of xs without modifying the input.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid], nil
	}
	return (cp[mid-1] + cp[mid]) / 2, nil
}

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
