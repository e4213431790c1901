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
	return smoteView(st, minIdx, nil, 0, percent, rng)
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

// smoteView plans a SMOTE pass over the minority rows minIdx of st
// (plain copies when neighbors is nil) in pooled memory and realises
// the plan against the store. Every neighbour list of one search has
// the same length, so a plan is all copies or all interpolations. A
// plan of copies (oversampling, or SMOTE degenerating to replacement
// when the minority has a single member) becomes a repeat view —
// duplicate row references, no value copies. A plan of interpolations
// becomes an extend view, which interpolates the synthetic values
// straight into its columns.
func smoteView(st *dataset.Store, minIdx []int, neighbors [][]int, k int, percent float64, rng *stats.RNG) (*dataset.View, error) {
	pb := planPool.Get().(*planBuf)
	defer planPool.Put(pb)
	if err := pb.planSmote(minIdx, neighbors, k, percent, rng); err != nil {
		return nil, err
	}
	if len(pb.plan) > 0 && pb.plan[0].Neighbor >= 0 {
		return st.InterpolateView(pb.plan), nil
	}
	pb.extra = pb.extra[:0]
	for _, p := range pb.plan {
		pb.extra = append(pb.extra, p.Seed)
	}
	return st.RepeatView(pb.extra), nil
}

// planBuf is the memory of one SMOTE plan: the plan itself, the seed
// shuffle of a pass below 100%, and a plan of copies' row references.
// The views copy what they keep, so the buffers go back to planPool as
// soon as the view is built.
type planBuf struct {
	plan  []dataset.Interpolation
	order []int32
	extra []int32
}

var planPool = sync.Pool{New: func() any { return new(planBuf) }}
