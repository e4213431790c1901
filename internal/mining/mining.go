// Package mining defines the interfaces shared by the data-mining
// algorithms of the suite (the Weka-analog of paper §VII-B): learners
// that fit classifiers to datasets, and classifiers that label instances.
//
// Concrete algorithms live in subpackages: tree (C4.5 decision tree
// induction, the methodology's learner), rules (PRISM, the symbolic
// alternative behind edem rules) and attrsel (variable ranking); eval
// provides confusion-matrix metrics and stratified cross-validation;
// sampling provides SMOTE and random over/undersampling for
// class-imbalance handling. The deleted comparator learners are
// recorded in EXPERIMENTS.md ("Learner comparison").
//
// Training data reaches a learner one way: as a dataset.View of a
// columnar dataset.Store (DESIGN.md §10). Cross-validation builds a
// store per fold, applies the sampling view, and calls FitView on a
// ViewFitter (C4.5) or Fit on the materialised view otherwise.
//
// Role in the methodology: Steps 3 and 4 (model generation and
// refinement) program against these interfaces. Ownership/concurrency
// contract for all implementations in the subpackages: a Learner's Fit
// must not retain or mutate the training dataset beyond the call, a
// fitted Classifier is immutable and safe for concurrent Classify
// calls, and a Learner value itself is safe to share across goroutines
// because Fit keeps its working state on the stack or in per-call
// allocations (fold- and cell-level parallelism rely on this).
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

// Learner fits a classifier to a training set.
type Learner interface {
	// Name identifies the algorithm (e.g. "C4.5").
	Name() string
	// Fit trains on d and returns the learnt model. Implementations
	// must not retain or mutate d.
	Fit(d *dataset.Dataset) (Classifier, error)
}

// ViewFitter is an optional Learner refinement for learners that can
// train directly from a columnar dataset.View (shared fold store +
// per-configuration sampling view) without materialising instances.
// Implementations must treat the view's arrays as read-only: one view
// may feed many concurrent FitView calls.
type ViewFitter interface {
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
