package eval

import (
	"errors"
	"math"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining"
	"edem/internal/stats"
)

// scoreByX scores P(pos) as the (clamped) first attribute value.
type scoreByX struct{}

func (scoreByX) Classify(v []float64) int {
	if v[0] >= 0.5 {
		return 1
	}
	return 0
}

func (scoreByX) Distribution(v []float64) []float64 {
	p := stats.Clamp(v[0], 0, 1)
	return []float64{1 - p, p}
}

var _ mining.Distributor = scoreByX{}

func rocDataset(n int, noise float64, seed uint64) *dataset.Dataset {
	d := dataset.New("roc", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"neg", "pos"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x := rng.Float64()
		class := 0
		if x > 0.5 {
			class = 1
		}
		if rng.Float64() < noise {
			class = 1 - class
		}
		d.MustAdd(dataset.Instance{Values: []float64{x}, Class: class, Weight: 1})
	}
	return d
}

func TestROCPerfectScorer(t *testing.T) {
	d := rocDataset(400, 0, 1)
	points, auc, err := ROC(scoreByX{}, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.999 {
		t.Errorf("perfect scorer AUC = %v", auc)
	}
	// Endpoints.
	first, last := points[0], points[len(points)-1]
	if first.FPR != 0 || first.TPR != 0 {
		t.Errorf("curve must start at (0,0): %+v", first)
	}
	if math.Abs(last.FPR-1) > 1e-12 || math.Abs(last.TPR-1) > 1e-12 {
		t.Errorf("curve must end at (1,1): %+v", last)
	}
	// Monotone in both coordinates.
	for k := 1; k < len(points); k++ {
		if points[k].FPR < points[k-1].FPR || points[k].TPR < points[k-1].TPR {
			t.Fatalf("non-monotone curve at %d", k)
		}
	}
}

func TestROCRandomScorer(t *testing.T) {
	// Scores independent of labels: AUC ~ 0.5.
	d := dataset.New("r", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"neg", "pos"})
	rng := stats.NewRNG(2)
	for i := 0; i < 2000; i++ {
		d.MustAdd(dataset.Instance{Values: []float64{rng.Float64()}, Class: rng.Intn(2), Weight: 1})
	}
	_, auc, err := ROC(scoreByX{}, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.45 || auc > 0.55 {
		t.Errorf("random scorer AUC = %v, want ~0.5", auc)
	}
}

func TestROCNoisyBetweenHalfAndOne(t *testing.T) {
	d := rocDataset(1000, 0.2, 3)
	_, auc, err := ROC(scoreByX{}, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if auc <= 0.6 || auc >= 0.99 {
		t.Errorf("noisy AUC = %v, want in (0.6, 0.99)", auc)
	}
}

func TestROCErrors(t *testing.T) {
	empty := dataset.New("e", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"a", "b"})
	if _, _, err := ROC(scoreByX{}, empty, 1); !errors.Is(err, ErrNoScores) {
		t.Errorf("err = %v", err)
	}
	onlyNeg := dataset.New("n", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"a", "b"})
	onlyNeg.MustAdd(dataset.Instance{Values: []float64{1}, Class: 0, Weight: 1})
	if _, _, err := ROC(scoreByX{}, onlyNeg, 1); err == nil {
		t.Error("single-class ROC should fail")
	}
}

func TestROCTieHandling(t *testing.T) {
	// All instances share one score: the curve is the diagonal and the
	// AUC is exactly 0.5 regardless of class mix.
	d := dataset.New("t", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"a", "b"})
	for i := 0; i < 10; i++ {
		d.MustAdd(dataset.Instance{Values: []float64{0.7}, Class: i % 2, Weight: 1})
	}
	points, auc, err := ROC(scoreByX{}, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("tied scores must collapse to one operating point, got %d", len(points))
	}
	if math.Abs(auc-0.5) > 1e-12 {
		t.Errorf("tied AUC = %v", auc)
	}
}
