package sampling

// This file holds the sampling treatments. Each returns a dataset.View
// describing the transformed training set against the store instead of
// materialising cloned instances: undersampling counts the kept rows
// into the store's value groups, oversampling counts row references,
// and SMOTE appends synthetic rows that carry their seed row, so the
// extend view places every value still equal to its seed's without
// sorting it (DESIGN.md §10).

import (
	"fmt"
	"slices"
	"sync"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// UndersampleView keeps keepPercent% of the majority-class rows (all
// other classes in full), the undersampling treatment whose levels
// Table IV reports as S=n(U). keepPercent must be in (0, 100]. The
// view holds every non-majority row in store order, then the kept
// majority rows in shuffled order.
func UndersampleView(st *dataset.Store, majorityClass int, keepPercent float64, rng *stats.RNG) (*dataset.View, error) {
	if majorityClass < 0 || majorityClass >= len(st.ClassValues()) {
		return nil, fmt.Errorf("sampling: class %d out of range", majorityClass)
	}
	order, err := undersampleOrder(st.Classes(), majorityClass, keepPercent, rng)
	if err != nil {
		return nil, err
	}
	rows := make([]int32, len(order))
	for i, r := range order {
		rows[i] = int32(r)
	}
	return st.SelectView(rows), nil
}

// OversampleView adds percent% copies of the minority class by sampling
// with replacement — SMOTE with interpolation factor q = 0 (paper §V-C)
// — as repeated row references. percent=300 adds three copies per
// minority row.
func OversampleView(st *dataset.Store, minorityClass int, percent float64, rng *stats.RNG) (*dataset.View, error) {
	minIdx, err := storeMinority(st, minorityClass)
	if err != nil {
		return nil, err
	}
	specs, err := planSmote(minIdx, nil, 0, percent, rng)
	if err != nil {
		return nil, err
	}
	return viewFromSpecs(st, minorityClass, minIdx, specs), nil
}

// SMOTEView adds percent% synthetic minority rows, each interpolated
// from a seed row towards one of its k nearest minority neighbours:
// s = t + q*(n - t) with q uniform in [0,1) (see interpolate). The rows
// are appended to the store through an extend view.
func SMOTEView(st *dataset.Store, minorityClass int, percent float64, k int, rng *stats.RNG) (*dataset.View, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	minIdx, err := storeMinority(st, minorityClass)
	if err != nil {
		return nil, err
	}
	var neighbors [][]int
	if len(minIdx) > 1 {
		neighbors = nearestNeighborsAt(st, minIdx, k)
	}
	specs, err := planSmote(minIdx, neighbors, k, percent, rng)
	if err != nil {
		return nil, err
	}
	return viewFromSpecs(st, minorityClass, minIdx, specs), nil
}

// storeMinority collects the store rows of the minority class.
func storeMinority(st *dataset.Store, minorityClass int) ([]int, error) {
	if minorityClass < 0 || minorityClass >= len(st.ClassValues()) {
		return nil, fmt.Errorf("sampling: class %d out of range", minorityClass)
	}
	var minIdx []int
	for i, c := range st.Classes() {
		if c == minorityClass {
			minIdx = append(minIdx, i)
		}
	}
	if len(minIdx) == 0 {
		return nil, ErrNoMinority
	}
	return minIdx, nil
}

// viewFromSpecs realises a synthetic-instance plan against the store.
// A plan of plain copies (oversampling, or SMOTE degenerating to
// replacement when the minority has a single member) becomes a repeat
// view — duplicate row references, no value copies. A plan with
// interpolations becomes an extend view holding the m synthetic rows.
func viewFromSpecs(st *dataset.Store, minorityClass int, minIdx []int, specs []synSpec) *dataset.View {
	allCopies := true
	for _, sp := range specs {
		if sp.nn >= 0 {
			allCopies = false
			break
		}
	}
	if allCopies {
		extra := make([]int32, len(specs))
		for i, sp := range specs {
			extra[i] = int32(minIdx[sp.seedPos])
		}
		return st.RepeatView(extra)
	}

	attrs := st.Attrs()
	cols := st.Cols()
	sb := synPool.Get().(*synBuf)
	defer synPool.Put(sb)
	nVals := len(specs) * len(attrs)
	sb.syn = slices.Grow(sb.syn[:0], len(specs))[:len(specs)]
	sb.vals = slices.Grow(sb.vals[:0], nVals)[:nVals]
	syn, valArena := sb.syn, sb.vals
	for i, sp := range specs {
		seedRow := minIdx[sp.seedPos]
		vs := valArena[i*len(attrs) : (i+1)*len(attrs)]
		for a := range attrs {
			vs[a] = cols[a][seedRow]
			if sp.nn >= 0 {
				vs[a] = interpolate(vs[a], cols[a][sp.nn], sp.q)
			}
		}
		syn[i] = dataset.Synthetic{Values: vs, Class: minorityClass, Seed: seedRow}
	}
	return st.ExtendView(syn)
}

// interpolate returns the SMOTE coordinate sv + q*(nv-sv) between a
// seed value sv and a neighbour value nv. Where that is NaN it returns
// sv: on a column holding both ±1e308 clamps nv-sv overflows to ±Inf,
// and q = 0 makes 0·Inf. The seed's value is what q = 0 means. A ±Inf
// result stays: the view's group merge orders it like any number.
func interpolate(sv, nv, q float64) float64 {
	if x := sv + q*(nv-sv); x == x {
		return x
	}
	return sv
}

// synBuf is viewFromSpecs' synthetic-row staging memory. ExtendView
// copies the values out, so the buffers go back to synPool as soon as
// the view is built.
type synBuf struct {
	syn  []dataset.Synthetic
	vals []float64
}

var synPool = sync.Pool{New: func() any { return new(synBuf) }}
