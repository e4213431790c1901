package eval

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining"
	"edem/internal/parallel"
	"edem/internal/stats"
)

// stubLearner memorises nothing: it predicts the training majority. The
// call counter is atomic because folds are fitted concurrently.
type stubLearner struct{ fitCalls *atomic.Int64 }

func (s stubLearner) Name() string { return "stub" }

func (s stubLearner) Fit(d *dataset.Dataset) (mining.Classifier, error) {
	if s.fitCalls != nil {
		s.fitCalls.Add(1)
	}
	return stubClassifier(d.MajorityClass()), nil
}

type stubClassifier int

func (c stubClassifier) Classify([]float64) int { return int(c) }

// perfectLearner returns a classifier implementing the generating rule.
type perfectLearner struct{}

func (perfectLearner) Name() string { return "perfect" }

func (perfectLearner) Fit(*dataset.Dataset) (mining.Classifier, error) {
	return classifierFunc(func(v []float64) int {
		if v[0] > 0.5 {
			return 1
		}
		return 0
	}), nil
}

type classifierFunc func([]float64) int

func (f classifierFunc) Classify(v []float64) int { return f(v) }

func cvDataset(n int, seed uint64) *dataset.Dataset {
	d := dataset.New("cv", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"neg", "pos"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x := rng.Float64()
		class := 0
		if x > 0.5 {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{x}, Class: class, Weight: 1})
	}
	return d
}

func TestCrossValidatePerfect(t *testing.T) {
	d := cvDataset(200, 1)
	res, err := CrossValidate(context.Background(), perfectLearner{}, d, CVConfig{Folds: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanTPR != 1 || res.MeanFPR != 0 || res.MeanAUC != 1 {
		t.Fatalf("perfect learner: TPR=%v FPR=%v AUC=%v", res.MeanTPR, res.MeanFPR, res.MeanAUC)
	}
	if res.VarAUC != 0 {
		t.Fatalf("perfect learner variance = %v", res.VarAUC)
	}
	if len(res.Folds) != 10 {
		t.Fatalf("folds = %d", len(res.Folds))
	}
	if res.Pooled.Total() != 200 {
		t.Fatalf("pooled total = %v", res.Pooled.Total())
	}
}

func TestCrossValidateFitsOncePerFold(t *testing.T) {
	d := cvDataset(100, 2)
	var calls atomic.Int64
	_, err := CrossValidate(context.Background(), stubLearner{fitCalls: &calls}, d, CVConfig{Folds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5 {
		t.Fatalf("fit called %d times, want 5", calls.Load())
	}
}

func TestCrossValidateDefaults(t *testing.T) {
	d := cvDataset(100, 3)
	res, err := CrossValidate(context.Background(), stubLearner{}, d, CVConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Folds) != 10 {
		t.Fatalf("default folds = %d, want 10", len(res.Folds))
	}
	// A constant-majority stub is an uninformative classifier: both
	// rates coincide and the trapezoid AUC sits at 0.5.
	if res.MeanTPR != res.MeanFPR || res.MeanAUC != 0.5 {
		t.Fatalf("stub metrics: TPR=%v FPR=%v AUC=%v", res.MeanTPR, res.MeanFPR, res.MeanAUC)
	}
}

func TestCrossValidateTransformAppliedToTrainOnly(t *testing.T) {
	d := cvDataset(100, 4)
	var mu sync.Mutex
	var trainSizes []int
	tf := func(st *dataset.Store, _ *stats.RNG) (*dataset.View, error) {
		mu.Lock()
		trainSizes = append(trainSizes, len(st.Classes()))
		mu.Unlock()
		// Duplicate the training set; the test partition must stay at
		// its natural size, keeping the pooled total invariant.
		dup := make([]int32, len(st.Classes()))
		for i := range dup {
			dup[i] = int32(i)
		}
		return st.RepeatView(dup), nil
	}
	res, err := CrossValidate(context.Background(), stubLearner{}, d, CVConfig{Folds: 10, Seed: 1, Transform: tf})
	if err != nil {
		t.Fatal(err)
	}
	if len(trainSizes) != 10 {
		t.Fatalf("transform called %d times", len(trainSizes))
	}
	if res.Pooled.Total() != 100 {
		t.Fatalf("pooled total = %v, want 100 (transform must not touch test folds)", res.Pooled.Total())
	}
}

func TestCrossValidateTransformError(t *testing.T) {
	d := cvDataset(50, 5)
	wantErr := errors.New("boom")
	tf := func(*dataset.Store, *stats.RNG) (*dataset.View, error) { return nil, wantErr }
	if _, err := CrossValidate(context.Background(), stubLearner{}, d, CVConfig{Folds: 5, Transform: tf}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrossValidateDeterminism(t *testing.T) {
	d := cvDataset(120, 6)
	r1, err := CrossValidate(context.Background(), perfectLearner{}, d, CVConfig{Folds: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CrossValidate(context.Background(), perfectLearner{}, d, CVConfig{Folds: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r1.MeanAUC != r2.MeanAUC || r1.MeanComp != r2.MeanComp {
		t.Fatal("same-seed cross-validations differ")
	}
}

// TestCrossValidateWorkerCountInvariant pins the scheduler contract:
// serial and parallel evaluation produce bit-identical results, because
// transform RNGs are forked in fold order before dispatch and all
// aggregation stays serial. The transform consumes fold randomness so a
// fork-order bug would change the outcome.
func TestCrossValidateWorkerCountInvariant(t *testing.T) {
	parallel.SetBudget(8)
	defer parallel.SetBudget(0)
	tf := func(st *dataset.Store, rng *stats.RNG) (*dataset.View, error) {
		// Randomly drop ~20% of the training instances.
		var keep []int32
		for i := 0; i < len(st.Classes()); i++ {
			if rng.Float64() < 0.8 {
				keep = append(keep, int32(i))
			}
		}
		return st.SelectView(keep), nil
	}
	for _, seed := range []uint64{3, 11} {
		d := cvDataset(150, seed)
		serial, err := CrossValidate(context.Background(), perfectLearner{}, d, CVConfig{Folds: 8, Seed: seed, Transform: tf, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := CrossValidate(context.Background(), perfectLearner{}, d, CVConfig{Folds: 8, Seed: seed, Transform: tf, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("seed %d: Workers=1 and Workers=8 results differ", seed)
		}
	}
}
