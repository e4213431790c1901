package tree

import (
	"errors"
	"fmt"
	"math"

	"edem/internal/dataset"
	"edem/internal/mining"
)

// Config controls C4.5 induction. The zero value selects the standard
// C4.5 defaults used throughout the paper (CF=0.25, min leaf weight 2,
// gain ratio, pruning on).
type Config struct {
	// MinLeaf is the minimum number of rows required in at least two
	// branches of a split (C4.5's -m). Default 2.
	MinLeaf float64
	// ConfidenceFactor is the pruning confidence (C4.5's -c). Default
	// 0.25; values >= 0.5 disable the statistical correction.
	ConfidenceFactor float64
	// NoPrune disables pessimistic error pruning.
	NoPrune bool
	// PlainGain uses raw information gain instead of gain ratio for
	// split selection (for the ablation benchmarks).
	PlainGain bool
	// NoMDLPenalty disables the log2(distinct-1)/|D| correction applied
	// to continuous-attribute gains.
	NoMDLPenalty bool
	// MaxDepth caps tree depth; 0 means unlimited.
	MaxDepth int
}

func (c Config) minLeaf() float64 {
	if c.MinLeaf <= 0 {
		return 2
	}
	return c.MinLeaf
}

func (c Config) confidence() float64 {
	if c.ConfidenceFactor <= 0 {
		return 0.25
	}
	return c.ConfidenceFactor
}

// Learner induces C4.5 decision trees.
type Learner struct {
	Config Config
}

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
	root := fitView(l.Config, v, sc)
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
