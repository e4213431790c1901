package dataset

import (
	"fmt"

	"edem/internal/stats"
)

// Fold is one train/test split of a cross-validation.
type Fold struct {
	Train []int // instance indices
	Test  []int
}

// StratifiedKFold partitions the dataset into k folds whose class
// distribution approximates the full dataset's ("10 stratified samples",
// paper §VII-C). The assignment is deterministic for a given rng seed.
//
// Each instance appears in exactly one Test set; Train is its complement.
func StratifiedKFold(d *Dataset, k int, rng *stats.RNG) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("dataset: k-fold requires k >= 2, got %d", k)
	}
	if d.Len() < k {
		return nil, fmt.Errorf("dataset: %d instances cannot fill %d folds", d.Len(), k)
	}

	// Group instance indices by class, shuffle within each class, then
	// deal them round-robin across folds so every fold receives a
	// proportional share of each class.
	byClass := make([][]int, len(d.ClassValues))
	for i := range d.Instances {
		c := d.Instances[i].Class
		byClass[c] = append(byClass[c], i)
	}
	testSets := make([][]int, k)
	for _, idxs := range byClass {
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		for pos, idx := range idxs {
			f := pos % k
			testSets[f] = append(testSets[f], idx)
		}
	}

	folds := make([]Fold, k)
	inTest := make([]int, d.Len()) // fold number + 1, 0 = unassigned
	for f, set := range testSets {
		for _, idx := range set {
			inTest[idx] = f + 1
		}
	}
	for f := 0; f < k; f++ {
		folds[f].Test = testSets[f]
		train := make([]int, 0, d.Len()-len(testSets[f]))
		for i := range d.Instances {
			if inTest[i] != f+1 {
				train = append(train, i)
			}
		}
		folds[f].Train = train
	}
	return folds, nil
}
