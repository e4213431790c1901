// Package stats provides small numeric helpers shared by the mining and
// evaluation packages: running moments, the normal quantile and
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
