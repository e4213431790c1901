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
// Each seed interpolates towards one of the first k entries of its
// neighbour list; nil neighbours plan plain replacement copies
// (oversampling, or a single-member minority).
//
// percent >= 100: r = percent/100 instances per seed (fractional
// remainder distributed randomly). percent < 100: a percent% random
// subset of seeds contributes one instance each, per the SMOTE paper.
func planSmote(minIdx []int, neighbors [][]int, k int, percent float64, rng *stats.RNG) ([]synSpec, error) {
	if percent <= 0 {
		return nil, fmt.Errorf("%w: %.1f%%", ErrBadPercent, percent)
	}
	pick := func(seedPos int) synSpec {
		sp := synSpec{seedPos: seedPos, nn: -1}
		if neighbors != nil && len(neighbors[seedPos]) > 0 {
			nn := neighbors[seedPos]
			sp.nn = nn[rng.Intn(min(k, len(nn)))]
			sp.q = rng.Float64()
		}
		return sp
	}

	total := int(math.Round(float64(len(minIdx)) * percent / 100))
	if percent < 100 {
		// Shuffling positions swaps exactly as shuffling the rows would:
		// the swaps depend only on the length.
		seeds := make([]int, len(minIdx))
		for i := range seeds {
			seeds[i] = i
		}
		rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
		total = min(total, len(seeds))
		specs := make([]synSpec, 0, total)
		for _, pos := range seeds[:total] {
			specs = append(specs, pick(pos))
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
// missing values contribute a 0/1 mismatch). minIdx must be ascending.
//
// Lists are ordered by (distance, row): a NaN distance (a column whose
// span overflows, such as one holding both ±1e308 clamps) ranks after
// every number. The search gathers the minority rows' values into
// contiguous columns, computes each pair once (the distance is
// symmetric bit for bit) and offers it to both rows' bounded k-slot
// lists.
func nearestNeighborsAt(st *dataset.Store, minIdx []int, k int) [][]int {
	m := len(minIdx)
	k = max(0, min(k, m-1))
	g := gatherMinority(st, minIdx)

	// Row r's list is keys/pos[r*k : (r+1)*k], sorted ascending and
	// padded with noKey; a candidate enters only below its last key.
	// Row r is offered its candidates in ascending position, so a
	// candidate tying a listed key has the larger position and goes
	// after it: the lists are in (key, position) order, and so in
	// (distance, row) order, since minIdx is ascending.
	keys := make([]uint64, m*k)
	pos := make([]int32, m*k)
	for i := range keys {
		keys[i] = noKey
	}
	insert := func(r int, key uint64, j int32) {
		kr, pr := keys[r*k:(r+1)*k], pos[r*k:(r+1)*k]
		p := k - 1
		for ; p > 0 && key < kr[p-1]; p-- {
			kr[p], pr[p] = kr[p-1], pr[p-1]
		}
		kr[p], pr[p] = key, j
	}
	if k > 0 {
		dist := make([]float64, m)
		for i := 0; i < m; i++ {
			// dist[j] for j > i: the pairs (i, j), each computed once.
			g.distances(i, dist[i+1:])
			for j := i + 1; j < m; j++ {
				key := distKey(dist[j])
				if key < keys[i*k+k-1] {
					insert(i, key, int32(j))
				}
				if key < keys[j*k+k-1] {
					insert(j, key, int32(i))
				}
			}
		}
	}

	res := make([][]int, m)
	flat := make([]int, m*k)
	for i := range res {
		nn := flat[i*k : (i+1)*k : (i+1)*k]
		for x, j := range pos[i*k : (i+1)*k] {
			nn[x] = minIdx[j]
		}
		res[i] = nn
	}
	return res
}

// noKey pads a neighbour list; it exceeds every distKey.
const noKey = math.MaxUint64

// distKey maps a distance onto an integer key of the same order, with
// NaN after every number. Distances are sums of squares, never
// negative, and the bits of a non-negative float64 order like its
// value; NaN takes the next pattern above +Inf.
func distKey(d float64) uint64 {
	if d != d {
		return math.Float64bits(math.Inf(1)) + 1
	}
	return math.Float64bits(d)
}

// minorityCols holds the minority rows' values of the attributes that
// can contribute to a distance, one contiguous column each, in schema
// order.
type minorityCols struct {
	cols    [][]float64
	nominal []bool
	// span is a numeric attribute's min-max span over the store.
	span []float64
	// tiny is span*2^-540 where that product is exact, else 0, and
	// +Inf for a numeric attribute of span <= 0. A difference |a-b| <
	// tiny has ((a-b)/span)^2 <= 2^-1080, which rounds to +0, so the
	// term is skipped: the same sum, without the subnormal arithmetic
	// that spans near 1e308 otherwise cost.
	tiny []float64
	// missing: the store holds missing values, each a 1 mismatch. Only
	// then are attributes of span <= 0 kept.
	missing bool
}

func gatherMinority(st *dataset.Store, minIdx []int) *minorityCols {
	attrs, cols := st.Attrs(), st.Cols()
	lo, hi := columnRanges(st)
	g := &minorityCols{missing: st.HasMissing()}
	for a := range attrs {
		nominal := attrs[a].Type == dataset.Nominal
		span, tiny := hi[a]-lo[a], 0.0
		switch {
		case nominal:
		case span <= 0:
			if !g.missing {
				continue // contributes nothing to any distance
			}
			tiny = math.Inf(1)
		case span >= 0x1p-480:
			tiny = span * 0x1p-540
		}
		col := make([]float64, len(minIdx))
		for i, r := range minIdx {
			col[i] = cols[a][r]
		}
		g.cols = append(g.cols, col)
		g.nominal = append(g.nominal, nominal)
		g.span = append(g.span, span)
		g.tiny = append(g.tiny, tiny)
	}
	return g
}

// distances sets out[x] to the distance between minority rows i and
// i+1+x: per attribute in schema order, ((a-b)/span)^2 for a numeric
// attribute and 1 for a nominal mismatch or a missing value.
func (g *minorityCols) distances(i int, out []float64) {
	clear(out)
	for t, col := range g.cols {
		a, bs := col[i], col[i+1:i+1+len(out)]
		span, tiny := g.span[t], g.tiny[t]
		switch {
		case g.missing:
			for x, b := range bs {
				switch {
				case dataset.IsMissing(a) || dataset.IsMissing(b):
					out[x]++
				case g.nominal[t]:
					if a != b {
						out[x]++
					}
				case !(math.Abs(a-b) < tiny):
					diff := (a - b) / span
					out[x] += diff * diff
				}
			}
		case g.nominal[t]:
			for x, b := range bs {
				if a != b {
					out[x]++
				}
			}
		default:
			for x, b := range bs {
				d := a - b
				if math.Abs(d) < tiny {
					continue
				}
				diff := d / span
				out[x] += diff * diff
			}
		}
	}
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
