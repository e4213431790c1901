package sampling

import (
	"fmt"
	"math"
	"sort"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// This file keeps instance-major implementations of the sampling
// treatments as the oracle the views are checked against. They clone
// instances and search neighbours over instance rows, but draw their
// randomness through the same plan functions (undersampleOrder,
// planSmote), so a view's Materialize must reproduce them exactly.

func undersampleOracle(d *dataset.Dataset, majorityClass int, keepPercent float64, rng *stats.RNG) (*dataset.Dataset, error) {
	if majorityClass < 0 || majorityClass >= len(d.ClassValues) {
		return nil, fmt.Errorf("sampling: class %d out of range", majorityClass)
	}
	classes := make([]int, d.Len())
	for i := range d.Instances {
		classes[i] = d.Instances[i].Class
	}
	order, err := undersampleOrder(classes, majorityClass, keepPercent, rng)
	if err != nil {
		return nil, err
	}
	out := d.CloneSchema()
	for _, i := range order {
		out.Instances = append(out.Instances, d.Instances[i].Clone())
	}
	return out, nil
}

// cloneDataset returns a deep copy of d.
func cloneDataset(d *dataset.Dataset) *dataset.Dataset {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx)
}

func oversampleOracle(d *dataset.Dataset, minorityClass int, percent float64, rng *stats.RNG) (*dataset.Dataset, error) {
	return smoteOracleMode(d, minorityClass, percent, 1, rng, true)
}

func smoteOracle(d *dataset.Dataset, minorityClass int, percent float64, k int, rng *stats.RNG) (*dataset.Dataset, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	return smoteOracleMode(d, minorityClass, percent, k, rng, false)
}

func smoteOracleMode(d *dataset.Dataset, minorityClass int, percent float64, k int, rng *stats.RNG, replacementOnly bool) (*dataset.Dataset, error) {
	var minIdx []int
	for i := range d.Instances {
		if d.Instances[i].Class == minorityClass {
			minIdx = append(minIdx, i)
		}
	}
	if len(minIdx) == 0 {
		return nil, ErrNoMinority
	}
	var neighbors [][]int
	if !replacementOnly && len(minIdx) > 1 {
		neighbors = neighborsOracle(d, minIdx, k)
	}
	specs, err := planSmote(minIdx, neighbors, k, percent, rng)
	if err != nil {
		return nil, err
	}
	out := cloneDataset(d)
	for _, sp := range specs {
		seed := &d.Instances[minIdx[sp.seedPos]]
		syn := seed.Clone()
		if sp.nn >= 0 {
			nb := &d.Instances[sp.nn]
			for a := range syn.Values {
				sv, nv := seed.Values[a], nb.Values[a]
				// A NaN interpolation (q = 0 across an overflowing
				// span) keeps the seed's value.
				if x := sv + sp.q*(nv-sv); !math.IsNaN(x) {
					syn.Values[a] = x
				}
			}
		}
		syn.Class = minorityClass
		out.MustAdd(syn)
	}
	return out, nil
}

// neighborsOracle is the instance-major k-nearest-minority search:
// min-max-normalised Euclidean distance, a full sort of every row's
// candidates by distance (NaN after every number), ties broken by row
// index.
func neighborsOracle(d *dataset.Dataset, minIdx []int, k int) [][]int {
	n := len(d.Attrs)
	lo, hi := make([]float64, n), make([]float64, n)
	for a := 0; a < n; a++ {
		for i := range d.Instances {
			v := d.Instances[i].Values[a]
			if i == 0 || v < lo[a] {
				lo[a] = v
			}
			if i == 0 || v > hi[a] {
				hi[a] = v
			}
		}
	}
	dist := func(x, y []float64) float64 {
		s := 0.0
		for a := range d.Attrs {
			// A NaN span (a column holding one infinity throughout) is
			// not skipped.
			if span := hi[a] - lo[a]; !(span <= 0) {
				diff := (x[a] - y[a]) / span
				s += diff * diff
			}
		}
		return s
	}
	res := make([][]int, len(minIdx))
	for i, ii := range minIdx {
		cands := make([]int, 0, len(minIdx))
		for _, jj := range minIdx {
			if jj != ii {
				cands = append(cands, jj)
			}
		}
		ds := make(map[int]float64, len(cands))
		for _, jj := range cands {
			ds[jj] = dist(d.Instances[ii].Values, d.Instances[jj].Values)
		}
		sort.Slice(cands, func(a, b int) bool {
			da, db := ds[cands[a]], ds[cands[b]]
			if na, nb := math.IsNaN(da), math.IsNaN(db); na != nb {
				return nb
			}
			if da != db && !math.IsNaN(da) {
				return da < db
			}
			return cands[a] < cands[b]
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		res[i] = cands
	}
	return res
}
