// Package mining defines the interfaces shared by the data-mining
// algorithms of the suite (the Weka-analog of paper §VII-B): learners
// that fit classifiers to training views, and classifiers that label
// instances.
//
// Concrete algorithms live in subpackages: tree (C4.5 decision tree
// induction, the methodology's one learner); eval provides the
// confusion-matrix metrics; sampling provides SMOTE and random
// over/undersampling for class-imbalance handling. The
// cross-validation loop is core's (core.CrossValidate and the
// refinement grid share it). The deleted comparator learners, PRISM
// among them, are recorded in EXPERIMENTS.md ("Learner comparison").
//
// Training data reaches a learner one way: as a dataset.View of a
// columnar dataset.Store (DESIGN.md §10). Cross-validation builds a
// store per fold, applies each cell's sampling view, and calls FitView.
//
// Role in the methodology: Steps 3 and 4 (model generation and
// refinement) program against these interfaces. Ownership/concurrency
// contract for all implementations: FitView must only read the view's
// arrays (one view may feed many concurrent FitView calls) and retain
// none of them beyond the call, a fitted Classifier is immutable and
// safe for concurrent Classify calls, and a Learner value itself is
// safe to share across goroutines because FitView keeps its working
// state on the stack or in per-call allocations (cross-validation
// cells run in parallel and rely on this).
package mining

import "edem/internal/dataset"

// Classifier labels instances. Values follow the dataset convention:
// one float64 per attribute (nominal values as domain indices, NaN for
// missing); the returned label is a class index.
type Classifier interface {
	Classify(values []float64) int
}

// Sizer is an optional Classifier refinement reporting model complexity
// (the Comp column of Tables III/IV: node count for decision trees, rule
// count for rule sets).
type Sizer interface {
	Size() int
}

// Learner fits a classifier to a training view. C4.5 (tree.Learner)
// is the one production implementation; the core tests substitute
// fakes through this interface.
type Learner interface {
	FitView(v *dataset.View) (Classifier, error)
}

// ModelSize returns the complexity of a classifier, or 1 if the model
// does not report one.
func ModelSize(c Classifier) int {
	if s, ok := c.(Sizer); ok {
		return s.Size()
	}
	return 1
}
