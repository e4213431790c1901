// Package eval implements the evaluation metrics of paper §IV: the
// confusion matrix (Table I) and the derived metrics (sensitivity,
// specificity, the single-model trapezoid AUC, F1, geometric mean,
// Euclidean distance from the perfect classifier, expected
// misclassification cost), plus CVResult, the per-fold means a
// cross-validation reports.
//
// Role in the methodology: the measurement vocabulary of Steps 3 and 4.
// The cross-validation loop itself is core's (Refine's cell engine,
// which Baseline and CrossValidate share); every Table III/IV figure is
// a CVResult it produced from per-fold BinaryCounts. Metric types are
// plain values; share them only read-only.
package eval

import (
	"fmt"
	"math"
	"strings"
)

// PositiveClass is the conventional index of the concept class
// (failure-inducing states) in binary fault-injection datasets.
const PositiveClass = 1

// CVResult aggregates a k-fold cross-validation in the form reported by
// Tables III and IV: mean FPR/TPR/AUC across folds, mean model
// complexity, and the across-fold AUC variance.
type CVResult struct {
	MeanTPR  float64
	MeanFPR  float64
	MeanAUC  float64
	MeanComp float64
	VarAUC   float64
}

// ConfusionMatrix cross-tabulates actual vs predicted class labels.
// Cells are weighted counts: CM[i][j] is the total weight of instances
// of actual class i predicted as class j (paper Table I).
type ConfusionMatrix struct {
	Classes []string
	Cells   [][]float64
}

// NewConfusionMatrix returns an empty matrix over the given classes.
func NewConfusionMatrix(classes []string) *ConfusionMatrix {
	cs := make([]string, len(classes))
	copy(cs, classes)
	cells := make([][]float64, len(classes))
	for i := range cells {
		cells[i] = make([]float64, len(classes))
	}
	return &ConfusionMatrix{Classes: cs, Cells: cells}
}

// Record adds one labelled prediction with the given weight.
func (cm *ConfusionMatrix) Record(actual, predicted int, weight float64) error {
	n := len(cm.Classes)
	if actual < 0 || actual >= n || predicted < 0 || predicted >= n {
		return fmt.Errorf("eval: class out of range: actual=%d predicted=%d n=%d", actual, predicted, n)
	}
	cm.Cells[actual][predicted] += weight
	return nil
}

// Total returns the total recorded weight.
func (cm *ConfusionMatrix) Total() float64 {
	t := 0.0
	for i := range cm.Cells {
		for _, v := range cm.Cells[i] {
			t += v
		}
	}
	return t
}

// Accuracy returns the weighted fraction of correct predictions.
func (cm *ConfusionMatrix) Accuracy() float64 {
	total := cm.Total()
	if total == 0 {
		return 0
	}
	correct := 0.0
	for i := range cm.Cells {
		correct += cm.Cells[i][i]
	}
	return correct / total
}

// ExpectedCost returns the total misclassification cost under cost
// matrix c, where c[i][j] is the cost of predicting class j for an
// instance of class i (paper §IV). The diagonal is conventionally zero.
func (cm *ConfusionMatrix) ExpectedCost(c [][]float64) (float64, error) {
	if len(c) != len(cm.Classes) {
		return 0, fmt.Errorf("eval: cost matrix has %d rows, want %d", len(c), len(cm.Classes))
	}
	total := 0.0
	for i := range cm.Cells {
		if len(c[i]) != len(cm.Classes) {
			return 0, fmt.Errorf("eval: cost matrix row %d has %d columns, want %d", i, len(c[i]), len(cm.Classes))
		}
		for j := range cm.Cells[i] {
			total += c[i][j] * cm.Cells[i][j]
		}
	}
	return total, nil
}

// Binary collapses the matrix into TP/FP/TN/FN counts treating class
// pos as the positive concept.
func (cm *ConfusionMatrix) Binary(pos int) BinaryCounts {
	var b BinaryCounts
	for i := range cm.Cells {
		for j, w := range cm.Cells[i] {
			switch {
			case i == pos && j == pos:
				b.TP += w
			case i == pos && j != pos:
				b.FN += w
			case i != pos && j == pos:
				b.FP += w
			default:
				b.TN += w
			}
		}
	}
	return b
}

// String renders the matrix in the layout of Table I.
func (cm *ConfusionMatrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s", "actual\\pred")
	for _, c := range cm.Classes {
		fmt.Fprintf(&sb, "%12s", c)
	}
	sb.WriteByte('\n')
	for i, c := range cm.Classes {
		fmt.Fprintf(&sb, "%-14s", c)
		for j := range cm.Classes {
			fmt.Fprintf(&sb, "%12.1f", cm.Cells[i][j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// BinaryCounts are the four cells of a concept-learning confusion
// matrix (paper Table I).
type BinaryCounts struct {
	TP, FN, FP, TN float64
}

// TPR returns the true positive rate (sensitivity, recall): TP/(TP+FN).
// It is 0 when no positives exist.
func (b BinaryCounts) TPR() float64 { return ratio(b.TP, b.TP+b.FN) }

// FPR returns the false positive rate: FP/(TN+FP).
func (b BinaryCounts) FPR() float64 { return ratio(b.FP, b.TN+b.FP) }

// TNR returns the true negative rate (specificity): TN/(TN+FP).
func (b BinaryCounts) TNR() float64 { return ratio(b.TN, b.TN+b.FP) }

// Precision returns TP/(TP+FP).
func (b BinaryCounts) Precision() float64 { return ratio(b.TP, b.TP+b.FP) }

// F1 returns the harmonic mean of precision and recall (paper §IV).
func (b BinaryCounts) F1() float64 {
	p, r := b.Precision(), b.TPR()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// GeometricMean returns sqrt(TPR*TNR), the metric of Kubat et al. [26].
func (b BinaryCounts) GeometricMean() float64 {
	return math.Sqrt(b.TPR() * b.TNR())
}

// AUC returns the single-model trapezoid area under the ROC curve,
// (TPR - FPR + 1)/2, the AUC measure reported in Tables III and IV.
func (b BinaryCounts) AUC() float64 {
	return (b.TPR() - b.FPR() + 1) / 2
}

// DistanceFromPerfect returns the Euclidean distance of the model's
// ROC point (FPR, TPR) from the perfect classifier at (0, 1).
func (b BinaryCounts) DistanceFromPerfect() float64 {
	fpr, tpr := b.FPR(), b.TPR()
	return math.Hypot(fpr, 1-tpr)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
