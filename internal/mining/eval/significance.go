package eval

import (
	"errors"
	"fmt"
	"math"
)

// Significance testing for classifier comparisons: McNemar's test on
// paired predictions and the paired t-test on per-fold metrics. These
// back claims of the form "C4.5 is (not) significantly better than X on
// this fault-injection dataset" — the statistical footing for the
// learner-comparison ablation.

// McNemarResult summarises McNemar's test between two classifiers
// evaluated on the same instances.
type McNemarResult struct {
	// OnlyAWrong counts instances misclassified by A but not B.
	OnlyAWrong int
	// OnlyBWrong counts instances misclassified by B but not A.
	OnlyBWrong int
	// Statistic is the continuity-corrected chi-squared statistic.
	Statistic float64
	// Significant reports whether the difference exceeds the 0.05
	// critical value (chi-squared, 1 degree of freedom: 3.841).
	Significant bool
}

// ErrLengthMismatch reports prediction/label slices of unequal length.
var ErrLengthMismatch = errors.New("eval: prediction and label lengths differ")

// McNemar compares two classifiers' predictions against the true
// labels using McNemar's test with continuity correction.
func McNemar(predsA, predsB, labels []int) (*McNemarResult, error) {
	if len(predsA) != len(labels) || len(predsB) != len(labels) {
		return nil, ErrLengthMismatch
	}
	if len(labels) == 0 {
		return nil, errors.New("eval: no instances")
	}
	res := &McNemarResult{}
	for i, y := range labels {
		aWrong := predsA[i] != y
		bWrong := predsB[i] != y
		switch {
		case aWrong && !bWrong:
			res.OnlyAWrong++
		case bWrong && !aWrong:
			res.OnlyBWrong++
		}
	}
	n := float64(res.OnlyAWrong + res.OnlyBWrong)
	if n > 0 {
		d := math.Abs(float64(res.OnlyAWrong-res.OnlyBWrong)) - 1 // continuity correction
		if d < 0 {
			d = 0
		}
		res.Statistic = d * d / n
	}
	const chi2Crit05df1 = 3.841458820694124
	res.Significant = res.Statistic > chi2Crit05df1
	return res, nil
}

// TTestResult summarises a paired t-test over per-fold metric values.
type TTestResult struct {
	// MeanDiff is the mean of (a_i - b_i).
	MeanDiff float64
	// Statistic is the paired t statistic.
	Statistic float64
	// DF is the degrees of freedom (folds - 1).
	DF int
	// Significant reports |t| beyond the two-tailed 0.05 critical
	// value for DF.
	Significant bool
}

// PairedTTest runs the paired two-tailed t-test on matched per-fold
// scores (e.g. the per-fold AUCs of two learners cross-validated on the
// same folds).
func PairedTTest(a, b []float64) (*TTestResult, error) {
	if len(a) != len(b) {
		return nil, ErrLengthMismatch
	}
	n := len(a)
	if n < 2 {
		return nil, fmt.Errorf("eval: paired t-test needs >= 2 folds, got %d", n)
	}
	mean := 0.0
	for i := range a {
		mean += a[i] - b[i]
	}
	mean /= float64(n)
	ss := 0.0
	for i := range a {
		d := (a[i] - b[i]) - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	res := &TTestResult{MeanDiff: mean, DF: n - 1}
	if sd == 0 {
		// Identical differences on every fold: significant iff nonzero.
		if mean != 0 {
			res.Statistic = math.Inf(sign(mean))
			res.Significant = true
		}
		return res, nil
	}
	res.Statistic = mean / (sd / math.Sqrt(float64(n)))
	res.Significant = math.Abs(res.Statistic) > tCrit05(res.DF)
	return res, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// tCrit05 returns the two-tailed 0.05 critical value of Student's t for
// the given degrees of freedom (standard table; the asymptotic value is
// used beyond df 30).
func tCrit05(df int) float64 {
	table := []float64{
		0, // df 0 (unused)
		12.706, 4.303, 3.182, 2.776, 2.571,
		2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131,
		2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060,
		2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}
