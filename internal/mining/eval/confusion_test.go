package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mkBinary(tp, fn, fp, tn float64) BinaryCounts {
	return BinaryCounts{TP: tp, FN: fn, FP: fp, TN: tn}
}

func TestConfusionMatrixPaperExample(t *testing.T) {
	// Table I structure: actual class in rows, predicted in columns.
	cm := NewConfusionMatrix([]string{"neg", "pos"})
	// 90 TN, 5 FP, 2 FN, 3 TP.
	for i := 0; i < 90; i++ {
		_ = cm.Record(0, 0, 1)
	}
	for i := 0; i < 5; i++ {
		_ = cm.Record(0, 1, 1)
	}
	for i := 0; i < 2; i++ {
		_ = cm.Record(1, 0, 1)
	}
	for i := 0; i < 3; i++ {
		_ = cm.Record(1, 1, 1)
	}
	b := cm.Binary(1)
	if b.TP != 3 || b.FN != 2 || b.FP != 5 || b.TN != 90 {
		t.Fatalf("binary counts = %+v", b)
	}
	if cm.Total() != 100 {
		t.Fatalf("total = %v", cm.Total())
	}
	if got := cm.Accuracy(); got != 0.93 {
		t.Fatalf("accuracy = %v", got)
	}
	s := cm.String()
	if !strings.Contains(s, "neg") || !strings.Contains(s, "pos") {
		t.Errorf("render: %s", s)
	}
}

func TestRecordValidation(t *testing.T) {
	cm := NewConfusionMatrix([]string{"a", "b"})
	if err := cm.Record(2, 0, 1); err == nil {
		t.Error("actual out of range")
	}
	if err := cm.Record(0, -1, 1); err == nil {
		t.Error("predicted out of range")
	}
}

func TestBinaryMetrics(t *testing.T) {
	b := mkBinary(40, 10, 5, 45)
	if got := b.TPR(); got != 0.8 {
		t.Errorf("TPR = %v", got)
	}
	if got := b.FPR(); got != 0.1 {
		t.Errorf("FPR = %v", got)
	}
	if got := b.TNR(); got != 0.9 {
		t.Errorf("TNR = %v", got)
	}
	if got := b.Precision(); got != 40.0/45 {
		t.Errorf("Precision = %v", got)
	}
	wantF1 := 2 * (40.0 / 45) * 0.8 / (40.0/45 + 0.8)
	if got := b.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, wantF1)
	}
	if got := b.GeometricMean(); math.Abs(got-math.Sqrt(0.8*0.9)) > 1e-12 {
		t.Errorf("G-mean = %v", got)
	}
	// The paper's single-model trapezoid AUC.
	if got := b.AUC(); math.Abs(got-(0.8-0.1+1)/2) > 1e-12 {
		t.Errorf("AUC = %v", got)
	}
	if got := b.DistanceFromPerfect(); math.Abs(got-math.Hypot(0.1, 0.2)) > 1e-12 {
		t.Errorf("distance = %v", got)
	}
}

func TestMetricsZeroDenominators(t *testing.T) {
	var b BinaryCounts
	if b.TPR() != 0 || b.FPR() != 0 || b.Precision() != 0 || b.F1() != 0 {
		t.Fatal("zero counts must yield zero metrics, not NaN")
	}
	if b.AUC() != 0.5 {
		t.Fatalf("empty AUC = %v, want 0.5", b.AUC())
	}
}

func TestAUCBounds(t *testing.T) {
	f := func(tp, fn, fp, tn uint16) bool {
		b := mkBinary(float64(tp), float64(fn), float64(fp), float64(tn))
		auc := b.AUC()
		return auc >= 0 && auc <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerfectDetector(t *testing.T) {
	// The perfect detector of paper SIV: fpr=0, tpr=1.
	b := mkBinary(50, 0, 0, 50)
	if b.AUC() != 1 || b.DistanceFromPerfect() != 0 || b.F1() != 1 {
		t.Fatalf("perfect detector metrics: %+v", b)
	}
}

func TestExpectedCost(t *testing.T) {
	cm := NewConfusionMatrix([]string{"neg", "pos"})
	_ = cm.Record(1, 0, 4) // 4 FN
	_ = cm.Record(0, 1, 2) // 2 FP
	_ = cm.Record(0, 0, 10)
	// FN costs 10, FP costs 1.
	cost, err := cm.ExpectedCost([][]float64{{0, 1}, {10, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 4*10+2*1 {
		t.Fatalf("cost = %v, want 42", cost)
	}
	// Uniform cost matrix reduces to error count.
	errCost, err := cm.ExpectedCost([][]float64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if errCost != 6 {
		t.Fatalf("uniform cost = %v, want 6", errCost)
	}
	if _, err := cm.ExpectedCost([][]float64{{0}}); err == nil {
		t.Error("wrong cost matrix shape should fail")
	}
	if _, err := cm.ExpectedCost([][]float64{{0, 1}, {1}}); err == nil {
		t.Error("ragged cost matrix should fail")
	}
}

func TestBinaryWithMultiClass(t *testing.T) {
	cm := NewConfusionMatrix([]string{"a", "b", "c"})
	_ = cm.Record(1, 1, 3) // TP for pos=1
	_ = cm.Record(1, 2, 2) // FN (pos predicted other)
	_ = cm.Record(0, 1, 1) // FP
	_ = cm.Record(2, 0, 5) // TN (non-pos to non-pos)
	b := cm.Binary(1)
	if b.TP != 3 || b.FN != 2 || b.FP != 1 || b.TN != 5 {
		t.Fatalf("multi-class binary = %+v", b)
	}
}
