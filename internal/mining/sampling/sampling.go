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
// clones instances. SMOTE plans its synthetic rows as (seed, neighbour,
// q) triples, and the extend view interpolates them straight into its
// columns.
//
// The SMOTE neighbour lists of a fold come from a NeighborIndex. One
// SharedIndex searches the whole dataset once; every fold whose
// training store has the whole dataset's attribute spans derives its
// index from those lists by dropping its held-out rows, and only the
// folds with spans of their own search (BuildViewIndex). The final fit
// takes the whole dataset's index from the same search.
//
// Concurrency: transforms never mutate their store, drawing variates
// from a caller-supplied RNG (callers give each grid cell its own).
// NeighborIndex and SharedIndex are immutable after construction and
// safe for concurrent reads: the cells of a fold share its index, and
// the folds the shared search.
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

// planSmote consumes the RNG stream of a SMOTE/oversampling pass and
// leaves the synthetic rows to generate in pb.plan, without touching
// any row data: each entry's Seed is a row of minIdx, its Neighbor a
// row of the seed's neighbour list, or -1 for a plain replacement copy.
// It is the single place these passes consume randomness, shared by
// OversampleView and the NeighborIndex methods so both see the
// identical RNG stream.
//
// Each seed interpolates towards one of the first k entries of its
// neighbour list; nil neighbours (oversampling) or an empty list (a
// single-member minority) plan plain replacement copies.
//
// percent >= 100: r = percent/100 instances per seed (fractional
// remainder distributed randomly). percent < 100: a percent% random
// subset of seeds contributes one instance each, per the SMOTE paper.
func (pb *planBuf) planSmote(minIdx []int, neighbors [][]int, k int, percent float64, rng *stats.RNG) error {
	if percent <= 0 {
		return fmt.Errorf("%w: %.1f%%", ErrBadPercent, percent)
	}
	pick := func(seedPos int) dataset.Interpolation {
		p := dataset.Interpolation{Seed: int32(minIdx[seedPos]), Neighbor: -1}
		if neighbors != nil && len(neighbors[seedPos]) > 0 {
			nn := neighbors[seedPos]
			p.Neighbor = int32(nn[rng.Intn(min(k, len(nn)))])
			p.Q = rng.Float64()
		}
		return p
	}

	total := int(math.Round(float64(len(minIdx)) * percent / 100))
	pb.plan = pb.plan[:0]
	if percent < 100 {
		// Shuffling positions swaps exactly as shuffling the rows would:
		// the swaps depend only on the length.
		seeds := pb.order[:0]
		for i := range minIdx {
			seeds = append(seeds, int32(i))
		}
		pb.order = seeds
		rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
		for _, pos := range seeds[:min(total, len(seeds))] {
			pb.plan = append(pb.plan, pick(int(pos)))
		}
		return nil
	}
	whole := total / len(minIdx)
	extra := total - whole*len(minIdx)
	for pos := range minIdx {
		for r := 0; r < whole; r++ {
			pb.plan = append(pb.plan, pick(pos))
		}
	}
	for e := 0; e < extra; e++ {
		pb.plan = append(pb.plan, pick(rng.Intn(len(minIdx))))
	}
	return nil
}

// neighborLists maps the first k entries of each search list (depth
// entries per row in pos) to the rows minIdx holds at those positions.
func neighborLists(pos []int32, depth, k int, minIdx []int) [][]int {
	res := make([][]int, len(minIdx))
	flat := make([]int, len(minIdx)*k)
	for i := range res {
		nn := flat[i*k : (i+1)*k : (i+1)*k]
		for x, j := range pos[i*depth : i*depth+k] {
			nn[x] = minIdx[j]
		}
		res[i] = nn
	}
	return res
}

// search is the neighbour kernel: for each of the m gathered rows, the
// positions of its min(depth, m-1) nearest other rows, in one flat
// array, m lists of k each.
//
// Lists are ordered by (distance, position): a NaN distance (a column
// whose span overflows, such as one holding both ±1e308 clamps) ranks
// after every number. The search computes each pair once (the distance
// is symmetric bit for bit) and offers it to both rows' bounded lists.
func (g *minorityCols) search(depth int) (pos []int32, k int) {
	m := g.m
	nl := newNearest(m, max(0, min(depth, m-1)))
	if k := nl.k; k > 0 {
		keys := nl.keys
		dist := make([]float64, m)
		for i := 0; i < m; i++ {
			// dist[j] for j > i: the pairs (i, j), each computed once.
			g.distances(i, i+1, dist[i+1:])
			for j := i + 1; j < m; j++ {
				key := distKey(dist[j])
				if key < keys[i*k+k-1] {
					nl.insert(i, key, int32(j))
				}
				if key < keys[j*k+k-1] {
					nl.insert(j, key, int32(i))
				}
			}
		}
	}
	return nl.pos, nl.k
}

// nearest holds bounded neighbour lists of k slots each: row r's list is keys/pos[r*k : (r+1)*k], sorted ascending and
// padded with noKey. A candidate enters only below its list's last key,
// keys[r*k+k-1].
// Each row must be offered its candidates in ascending position; then a
// candidate tying a listed key has the larger position and goes after
// it, so the lists are in (key, position) order.
type nearest struct {
	k    int
	keys []uint64
	pos  []int32
}

func newNearest(rows, k int) *nearest {
	nl := &nearest{k: k, keys: make([]uint64, rows*k), pos: make([]int32, rows*k)}
	for i := range nl.keys {
		nl.keys[i] = noKey
	}
	return nl
}

// insert puts candidate j at key into row r's list, dropping its last.
func (nl *nearest) insert(r int, key uint64, j int32) {
	k := nl.k
	kr, pr := nl.keys[r*k:(r+1)*k], nl.pos[r*k:(r+1)*k]
	p := k - 1
	for ; p > 0 && key < kr[p-1]; p-- {
		kr[p], pr[p] = kr[p-1], pr[p-1]
	}
	kr[p], pr[p] = key, j
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
// order: every attribute whose span is not <= 0.
type minorityCols struct {
	m    int // rows
	cols [][]float64
	// span is an attribute's min-max span over the store.
	span []float64
	// tiny is span*2^-540 where that product is exact, else 0. A
	// difference |a-b| < tiny has ((a-b)/span)^2 <= 2^-1080, which
	// rounds to +0, so the term is skipped: the same sum, without the
	// subnormal arithmetic that spans near 1e308 otherwise cost.
	tiny []float64
}

// gatherMinority gathers the rows minIdx of st under the store's
// per-attribute spans (see spans). The spans alone decide which
// attributes count and how each term is scaled: two stores with the
// same spans, by sameKernel, give two rows the same distance, bit for
// bit.
func gatherMinority(st *dataset.Store, minIdx []int, spans []float64) *minorityCols {
	cols := st.Cols()
	g := &minorityCols{m: len(minIdx)}
	for a := range cols {
		span, tiny := spans[a], 0.0
		switch {
		case span <= 0:
			continue // contributes nothing to any distance
		case span >= 0x1p-480:
			tiny = span * 0x1p-540
		}
		col := make([]float64, len(minIdx))
		for i, r := range minIdx {
			col[i] = cols[a][r]
		}
		g.cols = append(g.cols, col)
		g.span = append(g.span, span)
		g.tiny = append(g.tiny, tiny)
	}
	return g
}

// distances sets out[x] to the distance between gathered rows i and
// j0+x: the sum, in schema order, of ((a-b)/span)^2 per attribute.
// a-b and b-a differ only in sign, so the distance is symmetric bit for
// bit.
func (g *minorityCols) distances(i, j0 int, out []float64) {
	clear(out)
	for t, col := range g.cols {
		a, bs := col[i], col[j0:j0+len(out)]
		span, tiny := g.span[t], g.tiny[t]
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

// spans returns every attribute's min-max span over the store's values,
// hi - lo: the only property of the store the distance reads.
func spans(st *dataset.Store) []float64 {
	attrs := st.Attrs()
	out := make([]float64, len(attrs))
	for a, col := range st.Cols() {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range col {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		out[a] = hi - lo
	}
	return out
}

// sameKernel reports whether two span vectors give every pair of rows
// the same distance: per attribute, both spans drop it (<= 0) or they
// are the same bits.
func sameKernel(x, y []float64) bool {
	for a := range x {
		if !(x[a] <= 0 && y[a] <= 0) && math.Float64bits(x[a]) != math.Float64bits(y[a]) {
			return false
		}
	}
	return true
}
