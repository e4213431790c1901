// Package attrsel implements attribute evaluation — the Weka-style
// rankers that order instrumented variables by how much information
// they individually carry about the failure class. Rankings guide both
// instrumentation (which variables are worth logging) and detector
// placement discussions (paper §II: the location problem).
//
// Role in the methodology: an aid to Step 2's preprocessing decisions
// and to the location problem, not part of the Table III/IV pipeline.
// Concurrency: evaluators are stateless value types; Rank reads the
// dataset without mutating or retaining it, so concurrent rankings of
// shared data are safe.
package attrsel

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"edem/internal/dataset"
)

// Score is one attribute's evaluation.
type Score struct {
	Attr  int
	Name  string
	Value float64
}

// Method selects the evaluation criterion.
type Method int

// Supported criteria.
const (
	// InfoGain ranks by mutual information between the (MDL-style
	// binary-split) attribute and the class.
	InfoGain Method = iota + 1
	// GainRatio ranks by information gain normalised by split entropy,
	// C4.5's selection criterion.
	GainRatio
	// Symmetrical ranks by symmetrical uncertainty,
	// 2*IG / (H(attr)+H(class)).
	Symmetrical
)

// String returns the criterion name.
func (m Method) String() string {
	switch m {
	case InfoGain:
		return "InfoGain"
	case GainRatio:
		return "GainRatio"
	case Symmetrical:
		return "SymmetricalUncertainty"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ErrEmpty is returned when ranking an empty dataset.
var ErrEmpty = errors.New("attrsel: empty dataset")

// Rank scores every attribute and returns the scores in descending
// order. Numeric attributes are evaluated at their single best binary
// threshold (the same candidate set C4.5 uses at the root); nominal
// attributes by their full multiway partition.
func Rank(d *dataset.Dataset, m Method) ([]Score, error) {
	if d.Len() == 0 {
		return nil, ErrEmpty
	}
	nClasses := len(d.ClassValues)
	classDist := make([]float64, nClasses)
	for i := range d.Instances {
		classDist[d.Instances[i].Class] += d.Instances[i].Weight
	}
	totalW := sumOf(classDist)
	classEnt := entropyDist(classDist, totalW)

	scores := make([]Score, 0, len(d.Attrs))
	for a := range d.Attrs {
		gain, splitEnt := attributeGain(d, a, classDist, totalW, classEnt)
		v := gain
		switch m {
		case GainRatio:
			if splitEnt > 1e-12 {
				v = gain / splitEnt
			} else {
				v = 0
			}
		case Symmetrical:
			if denom := splitEnt + classEnt; denom > 1e-12 {
				v = 2 * gain / denom
			} else {
				v = 0
			}
		}
		scores = append(scores, Score{Attr: a, Name: d.Attrs[a].Name, Value: v})
	}
	sort.SliceStable(scores, func(i, j int) bool { return scores[i].Value > scores[j].Value })
	return scores, nil
}

// attributeGain returns (information gain, split entropy) of the best
// split on attribute a.
func attributeGain(d *dataset.Dataset, a int, classDist []float64, totalW, classEnt float64) (float64, float64) {
	nClasses := len(classDist)
	if d.Attrs[a].Type == dataset.Nominal {
		nVals := len(d.Attrs[a].Values)
		branch := make([][]float64, nVals)
		for i := range branch {
			branch[i] = make([]float64, nClasses)
		}
		for i := range d.Instances {
			v := d.Instances[i].Values[a]
			if dataset.IsMissing(v) {
				continue
			}
			branch[int(v)][d.Instances[i].Class] += d.Instances[i].Weight
		}
		childEnt, splitEnt := 0.0, 0.0
		for _, bd := range branch {
			w := sumOf(bd)
			if w > 0 {
				childEnt += w / totalW * entropyDist(bd, w)
				p := w / totalW
				splitEnt -= p * math.Log2(p)
			}
		}
		return classEnt - childEnt, splitEnt
	}

	// Numeric: best binary threshold.
	type vw struct {
		v     float64
		w     float64
		class int
	}
	var vals []vw
	for i := range d.Instances {
		v := d.Instances[i].Values[a]
		if dataset.IsMissing(v) {
			continue
		}
		vals = append(vals, vw{v: v, w: d.Instances[i].Weight, class: d.Instances[i].Class})
	}
	if len(vals) < 2 {
		return 0, 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
	left := make([]float64, nClasses)
	right := append([]float64(nil), classDist...)
	bestGain, bestLeftW := 0.0, 0.0
	leftW := 0.0
	for i := 0; i < len(vals)-1; i++ {
		left[vals[i].class] += vals[i].w
		right[vals[i].class] -= vals[i].w
		leftW += vals[i].w
		if vals[i].v == vals[i+1].v {
			continue
		}
		rw := totalW - leftW
		childEnt := (leftW*entropyDist(left, leftW) + rw*entropyDist(right, rw)) / totalW
		if g := classEnt - childEnt; g > bestGain {
			bestGain = g
			bestLeftW = leftW
		}
	}
	if bestGain == 0 {
		return 0, 0
	}
	pl := bestLeftW / totalW
	pr := 1 - pl
	splitEnt := 0.0
	if pl > 0 {
		splitEnt -= pl * math.Log2(pl)
	}
	if pr > 0 {
		splitEnt -= pr * math.Log2(pr)
	}
	return bestGain, splitEnt
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func entropyDist(dist []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	e := 0.0
	for _, w := range dist {
		if w > 0 {
			p := w / total
			e -= p * math.Log2(p)
		}
	}
	return e
}
