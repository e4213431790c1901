// Package sampling implements the class-imbalance treatments of paper
// §IV/§V-C: random undersampling of the majority class, oversampling of
// the minority class with replacement, and SMOTE (Chawla et al. [37]) —
// synthetic minority instances interpolated towards k nearest
// neighbours. Oversampling with replacement is the q=0 special case of
// SMOTE.
//
// Role in the methodology: the refinement axis of Step 4 — the grid
// searches these treatments' levels for the best mean AUC (Table IV).
// Every treatment works against a columnar dataset.Store and returns a
// dataset.View of the transformed training set (DESIGN.md §10); nothing
// clones instances. Concurrency: transforms never mutate their store,
// drawing variates from a caller-supplied RNG (callers give each grid
// cell its own). A NeighborIndex is immutable after construction and
// safe for concurrent reads across the grid cells of a fold.
package sampling

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// Errors returned by the sampling operations.
var (
	ErrNoMinority = errors.New("sampling: no instances of the minority class")
	ErrBadPercent = errors.New("sampling: bad percentage")
	ErrBadK       = errors.New("sampling: nearest neighbour count must be >= 1")
)

// undersampleOrder computes the output row order of an undersampling
// pass over rows with the given classes: every non-majority row in
// input order, then the kept majority rows in shuffled order.
func undersampleOrder(classes []int, majorityClass int, keepPercent float64, rng *stats.RNG) ([]int, error) {
	if keepPercent <= 0 || keepPercent > 100 {
		return nil, fmt.Errorf("%w: keep %.1f%%", ErrBadPercent, keepPercent)
	}
	var majIdx []int
	order := make([]int, 0, len(classes))
	for i, c := range classes {
		if c == majorityClass {
			majIdx = append(majIdx, i)
		} else {
			order = append(order, i)
		}
	}
	keep := int(math.Round(float64(len(majIdx)) * keepPercent / 100))
	if keep < 1 && len(majIdx) > 0 {
		keep = 1
	}
	rng.Shuffle(len(majIdx), func(i, j int) { majIdx[i], majIdx[j] = majIdx[j], majIdx[i] })
	return append(order, majIdx[:keep]...), nil
}

// synSpec describes one planned synthetic instance: the seed's position
// in minIdx, the chosen neighbour row (-1 for a plain replacement
// copy), and the interpolation factor q.
type synSpec struct {
	seedPos int
	nn      int
	q       float64
}

// planSmote consumes the RNG stream of a SMOTE/oversampling pass and
// returns the synthetic instances to generate, without touching any
// row data. It is the single place these passes consume randomness,
// shared by the standalone transforms and the NeighborIndex methods so
// both see the identical RNG stream.
//
// percent >= 100: r = percent/100 instances per seed (fractional
// remainder distributed randomly). percent < 100: a percent% random
// subset of seeds contributes one instance each, per the SMOTE paper.
func planSmote(minIdx []int, neighbors [][]int, percent float64, rng *stats.RNG, replacementOnly bool) ([]synSpec, error) {
	if percent <= 0 {
		return nil, fmt.Errorf("%w: %.1f%%", ErrBadPercent, percent)
	}
	pick := func(seedPos int) synSpec {
		sp := synSpec{seedPos: seedPos, nn: -1}
		if !replacementOnly && neighbors != nil && len(neighbors[seedPos]) > 0 {
			sp.nn = neighbors[seedPos][rng.Intn(len(neighbors[seedPos]))]
			sp.q = rng.Float64()
		}
		return sp
	}

	total := int(math.Round(float64(len(minIdx)) * percent / 100))
	if percent < 100 {
		seeds := make([]int, len(minIdx))
		copy(seeds, minIdx)
		rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
		if total > len(seeds) {
			total = len(seeds)
		}
		specs := make([]synSpec, 0, total)
		for _, s := range seeds[:total] {
			// Map the shuffled seed back to its position in minIdx.
			specs = append(specs, pick(indexOf(minIdx, s)))
		}
		return specs, nil
	}
	whole := total / len(minIdx)
	extra := total - whole*len(minIdx)
	specs := make([]synSpec, 0, total)
	for pos := range minIdx {
		for r := 0; r < whole; r++ {
			specs = append(specs, pick(pos))
		}
	}
	for e := 0; e < extra; e++ {
		specs = append(specs, pick(rng.Intn(len(minIdx))))
	}
	return specs, nil
}

// nearestNeighborsAt returns, for each minority row of the store, the
// rows of its k nearest minority-class neighbours under
// min-max-normalised Euclidean distance (nominal attributes and
// missing values contribute a 0/1 mismatch), ties broken by row index.
func nearestNeighborsAt(st *dataset.Store, minIdx []int, k int) [][]int {
	attrs, cols := st.Attrs(), st.Cols()
	lo, hi := columnRanges(st)
	dist := func(a, b int) float64 {
		s := 0.0
		for i := range attrs {
			av, bv := cols[i][a], cols[i][b]
			if dataset.IsMissing(av) || dataset.IsMissing(bv) {
				s++
				continue
			}
			if attrs[i].Type == dataset.Nominal {
				if av != bv {
					s++
				}
				continue
			}
			span := hi[i] - lo[i]
			if span <= 0 {
				continue
			}
			diff := (av - bv) / span
			s += diff * diff
		}
		return s
	}

	res := make([][]int, len(minIdx))
	type cand struct {
		idx int
		d   float64
	}
	for i, ii := range minIdx {
		cands := make([]cand, 0, len(minIdx)-1)
		for j, jj := range minIdx {
			if i == j {
				continue
			}
			cands = append(cands, cand{idx: jj, d: dist(ii, jj)})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d != cands[b].d {
				return cands[a].d < cands[b].d
			}
			return cands[a].idx < cands[b].idx
		})
		n := k
		if n > len(cands) {
			n = len(cands)
		}
		nn := make([]int, n)
		for x := 0; x < n; x++ {
			nn[x] = cands[x].idx
		}
		res[i] = nn
	}
	return res
}

// columnRanges returns per-attribute min/max over the store's
// non-missing values.
func columnRanges(st *dataset.Store) (lo, hi []float64) {
	attrs := st.Attrs()
	lo = make([]float64, len(attrs))
	hi = make([]float64, len(attrs))
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	for i, col := range st.Cols() {
		for _, v := range col {
			if dataset.IsMissing(v) {
				continue
			}
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return lo, hi
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
