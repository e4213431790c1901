package tree

import (
	"errors"
	"fmt"
	"math"

	"edem/internal/dataset"
	"edem/internal/mining"
)

// The one C4.5 configuration, Quinlan's defaults: gain-ratio splits
// under the average-gain gate, the MDL penalty on continuous cuts, a
// minimum leaf of 2 rows and pessimistic pruning at CF 0.25.
const (
	// minLeaf is the minimum number of rows in each branch of a split
	// (C4.5's -m).
	minLeaf = 2
	// confidence is the pruning confidence factor (C4.5's -c).
	confidence = 0.25
)

// Learner induces C4.5 decision trees under the one configuration.
type Learner struct{}

// ErrEmptyTraining is returned when the training set has no instances.
var ErrEmptyTraining = errors.New("tree: empty training set")

// errTooManyClasses is returned for a class domain the builder's
// one-byte class array cannot hold.
var errTooManyClasses = fmt.Errorf("tree: more than %d classes", maxFastClasses)

// FitTree induces a tree and returns it with its concrete type, for
// callers that need predicate extraction or rendering. The dataset is
// validated (dataset.Validate: no NaN value, weight 1), snapshotted
// into a columnar store and induced by FitTreeView.
func (l Learner) FitTree(d *dataset.Dataset) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("tree: %w", err)
	}
	return l.FitTreeView(dataset.NewStore(d, nil).IdentityView())
}

// FitView implements mining.Learner: induction straight from a
// columnar training view, skipping instance materialisation.
func (l Learner) FitView(v *dataset.View) (mining.Classifier, error) {
	t, err := l.FitTreeView(v)
	if err != nil {
		return nil, err
	}
	return t, nil
}

var _ mining.Learner = Learner{}

// FitTreeView induces a tree from a columnar dataset.View. The counting
// builder starts directly on the view's pre-merged sort orders — no
// column build, no root sort. A view of more than maxFastClasses
// classes is refused with an error. The view's arrays are
// only read, so one view may feed many concurrent FitTreeView calls.
// The builder's partition memory is taken from a pool and returned
// once the tree is grown; the tree keeps none of it.
func (l Learner) FitTreeView(v *dataset.View) (*Tree, error) {
	if v.Len() == 0 {
		return nil, ErrEmptyTraining
	}
	if len(v.ClassValues()) > maxFastClasses {
		return nil, errTooManyClasses
	}
	sc := scratchPool.Get().(*buildScratch)
	root := fitView(v, sc)
	scratchPool.Put(sc)
	return &Tree{Root: root, Attrs: v.Attrs(), ClassValues: v.ClassValues()}, nil
}

// split describes a candidate test.
type split struct {
	attr      int
	threshold float64
	gain      float64
	gainRatio float64
	leftN     int // counting builder only: rows at or below threshold
}

// splitInfo is the entropy of the branch size distribution, the
// denominator of gain ratio.
func splitInfo(branchW []float64, totalW float64) float64 {
	if totalW <= 0 {
		return 0
	}
	si := 0.0
	for _, w := range branchW {
		if w > 0 {
			p := w / totalW
			si -= p * math.Log2(p)
		}
	}
	return si
}

func isPure(dist []float64) bool {
	seen := false
	for _, w := range dist {
		if w > 0 {
			if seen {
				return false
			}
			seen = true
		}
	}
	return true
}

func argmax(dist []float64) int {
	best := 0
	for c := 1; c < len(dist); c++ {
		if dist[c] > dist[best] {
			best = c
		}
	}
	return best
}
