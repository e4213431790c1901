package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining"
	"edem/internal/mining/sampling"
	"edem/internal/mining/tree"
	"edem/internal/parallel"
	"edem/internal/stats"
)

// stubLearner memorises nothing: it predicts class 0 whatever it is
// trained on. The call counter is atomic because cells are fitted
// concurrently.
type stubLearner struct{ fitCalls *atomic.Int64 }

func (s stubLearner) FitView(*dataset.View) (mining.Classifier, error) {
	if s.fitCalls != nil {
		s.fitCalls.Add(1)
	}
	return stubClassifier(0), nil
}

type stubClassifier int

func (c stubClassifier) Classify([]float64) int { return int(c) }

// perfectLearner returns a classifier implementing cvDataset's
// generating rule. classified, when set, counts Classify calls.
type perfectLearner struct{ classified *atomic.Int64 }

func (p perfectLearner) FitView(*dataset.View) (mining.Classifier, error) {
	return classifierFunc(func(v []float64) int {
		if p.classified != nil {
			p.classified.Add(1)
		}
		if v[0] > 0.5 {
			return 1
		}
		return 0
	}), nil
}

type classifierFunc func([]float64) int

func (f classifierFunc) Classify(v []float64) int { return f(v) }

// materialised fits C4.5 on each cell's materialised view instead of
// the view itself — the oracle the FitView path is compared against.
type materialised struct{ l tree.Learner }

func (w materialised) FitView(v *dataset.View) (mining.Classifier, error) {
	return w.l.FitTree(v.Materialize())
}

// sizeRecorder records the size of every training view it is handed.
type sizeRecorder struct {
	mu    *sync.Mutex
	sizes *[]int
}

func (r sizeRecorder) record(n int) {
	r.mu.Lock()
	*r.sizes = append(*r.sizes, n)
	r.mu.Unlock()
}

func (r sizeRecorder) FitView(v *dataset.View) (mining.Classifier, error) {
	r.record(v.Len())
	return stubClassifier(0), nil
}

// materialisedSizeRecorder records the size of every materialised
// training view, the training set the materialised oracle fits.
type materialisedSizeRecorder struct{ sizeRecorder }

func (r materialisedSizeRecorder) FitView(v *dataset.View) (mining.Classifier, error) {
	r.record(v.Materialize().Len())
	return stubClassifier(0), nil
}

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

func cvOpts(folds int, seed uint64) Options { return Options{Folds: folds, Seed: seed} }

func TestCrossValidatePerfect(t *testing.T) {
	d := cvDataset(200, 1)
	var classified atomic.Int64
	res, err := CrossValidate(context.Background(), perfectLearner{&classified}, d, cvOpts(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanTPR != 1 || res.MeanFPR != 0 || res.MeanAUC != 1 {
		t.Fatalf("perfect learner: TPR=%v FPR=%v AUC=%v", res.MeanTPR, res.MeanFPR, res.MeanAUC)
	}
	if res.VarAUC != 0 {
		t.Fatalf("perfect learner variance = %v", res.VarAUC)
	}
	// Every instance is tested exactly once.
	if classified.Load() != 200 {
		t.Fatalf("classified %d instances, want 200", classified.Load())
	}
}

func TestCrossValidateFitsOncePerFold(t *testing.T) {
	d := cvDataset(100, 2)
	var calls atomic.Int64
	if _, err := CrossValidate(context.Background(), stubLearner{fitCalls: &calls}, d, cvOpts(5, 1)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5 {
		t.Fatalf("fit called %d times, want 5", calls.Load())
	}
}

func TestCrossValidateDefaults(t *testing.T) {
	d := cvDataset(100, 3)
	var calls atomic.Int64
	res, err := CrossValidate(context.Background(), stubLearner{fitCalls: &calls}, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 10 {
		t.Fatalf("default folds = %d, want 10", calls.Load())
	}
	// A constant stub is an uninformative classifier: both
	// rates coincide and the trapezoid AUC sits at 0.5.
	if res.MeanTPR != res.MeanFPR || res.MeanAUC != 0.5 {
		t.Fatalf("stub metrics: TPR=%v FPR=%v AUC=%v", res.MeanTPR, res.MeanFPR, res.MeanAUC)
	}
}

// A sampling configuration changes the training folds only: the
// oversampled learner sees more rows than the partition holds, while
// every instance is still tested exactly once.
func TestCrossValidateTransformAppliedToTrainOnly(t *testing.T) {
	d := cvDataset(100, 4)
	var mu sync.Mutex
	var plain, oversampled []int
	var classified atomic.Int64
	for _, run := range []struct {
		cfg   SamplingConfig
		sizes *[]int
	}{
		{SamplingConfig{Kind: NoSampling}, &plain},
		{SamplingConfig{Kind: Oversampling, Percent: 100}, &oversampled},
	} {
		l := sizeRecorder{mu: &mu, sizes: run.sizes}
		if _, _, err := crossValidate(context.Background(), l, d, []SamplingConfig{run.cfg}, cvOpts(10, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := crossValidate(context.Background(), perfectLearner{&classified}, d,
		[]SamplingConfig{{Kind: Oversampling, Percent: 100}}, cvOpts(10, 1)); err != nil {
		t.Fatal(err)
	}
	if len(plain) != 10 || len(oversampled) != 10 {
		t.Fatalf("fit called %d and %d times, want 10 each", len(plain), len(oversampled))
	}
	sum := func(xs []int) (n int) {
		for _, x := range xs {
			n += x
		}
		return n
	}
	if sum(plain) != 9*100 || sum(oversampled) <= sum(plain) {
		t.Fatalf("training rows: plain %d, oversampled %d; want 900 and more", sum(plain), sum(oversampled))
	}
	if classified.Load() != 100 {
		t.Fatalf("classified %d instances, want 100 (sampling must not touch test folds)", classified.Load())
	}
}

func TestCrossValidateTransformError(t *testing.T) {
	d := cvDataset(50, 5)
	bad := []SamplingConfig{{Kind: Undersampling, Percent: -5}}
	if _, _, err := crossValidate(context.Background(), stubLearner{}, d, bad, cvOpts(5, 0)); !errors.Is(err, sampling.ErrBadPercent) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrossValidateDeterminism(t *testing.T) {
	d := cvDataset(120, 6)
	r1, err := CrossValidate(context.Background(), perfectLearner{}, d, cvOpts(6, 9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CrossValidate(context.Background(), perfectLearner{}, d, cvOpts(6, 9))
	if err != nil {
		t.Fatal(err)
	}
	if *r1 != *r2 {
		t.Fatal("same-seed cross-validations differ")
	}
}

// TestCrossValidateWorkerCountInvariant pins the scheduler contract:
// serial and parallel evaluation produce bit-identical results, because
// cell RNGs derive from (seed, fold, config) alone and all aggregation
// stays serial. Undersampling consumes cell randomness, so an RNG
// derivation that depended on scheduling would change the outcome.
func TestCrossValidateWorkerCountInvariant(t *testing.T) {
	parallel.SetBudget(8)
	defer parallel.SetBudget(0)
	configs := []SamplingConfig{{Kind: NoSampling}, {Kind: Undersampling, Percent: 60}}
	for _, seed := range []uint64{3, 11} {
		d := cvDataset(150, seed)
		opts := cvOpts(8, seed)
		opts.Workers = 1
		serial, _, err := crossValidate(context.Background(), tree.Learner{}, d, configs, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 8
		par, _, err := crossValidate(context.Background(), tree.Learner{}, d, configs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("seed %d: Workers=1 and Workers=8 results differ", seed)
		}
	}
}

func viewCVDataset(n int, seed uint64) *dataset.Dataset {
	d := dataset.New("view-cv", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
	}, []string{"ok", "fail"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		class := 0
		if x > 0.75 {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, y}, Class: class, Weight: 1})
	}
	return d
}

// The FitView cell path must yield the same folds, models and metrics
// as fitting the materialised view.
func TestCrossValidateViewPathMatchesInstancePath(t *testing.T) {
	d := viewCVDataset(300, 41)
	want, err := CrossValidate(context.Background(), materialised{}, d, cvOpts(10, 41))
	if err != nil {
		t.Fatal(err)
	}
	got, err := CrossValidate(context.Background(), tree.Learner{}, d, cvOpts(10, 41))
	if err != nil {
		t.Fatal(err)
	}
	if *want != *got {
		t.Fatal("FitView diverges from the materialised view")
	}
}

// Under a SMOTE configuration, C4.5 reading the view and C4.5 fitting
// its materialisation must agree, at every
// worker count (same cell RNG streams, same shared neighbour index).
func TestCrossValidateViewTransformMatchesTransform(t *testing.T) {
	d := viewCVDataset(300, 43)
	smote := []SamplingConfig{{Kind: Smote, Percent: 250, K: 3}}
	want, _, err := crossValidate(context.Background(), materialised{}, d, smote, cvOpts(10, 43))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		opts := cvOpts(10, 43)
		opts.Workers = workers
		got, _, err := crossValidate(context.Background(), tree.Learner{}, d, smote, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: FitView diverges from the materialised view", workers)
		}
	}
}

// The materialised oracle must train on the sampled fold, not the raw
// partition: every training set it fits has exactly the size of the
// view the cell hands FitView.
func TestCrossValidateTransformReachesMaterialisedFit(t *testing.T) {
	d := viewCVDataset(200, 47)
	under := []SamplingConfig{{Kind: Undersampling, Percent: 60}}
	var mu sync.Mutex
	var viewSizes, fitSizes []int
	if _, _, err := crossValidate(context.Background(), sizeRecorder{&mu, &viewSizes}, d, under, cvOpts(5, 47)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := crossValidate(context.Background(), materialisedSizeRecorder{sizeRecorder{&mu, &fitSizes}}, d, under, cvOpts(5, 47)); err != nil {
		t.Fatal(err)
	}
	sort.Ints(viewSizes)
	sort.Ints(fitSizes)
	if len(fitSizes) != 5 || !reflect.DeepEqual(viewSizes, fitSizes) {
		t.Fatalf("learner trained on %v, views held %v", fitSizes, viewSizes)
	}
	for _, n := range fitSizes {
		if n >= d.Len()*4/5 {
			t.Errorf("undersampling kept %d rows of a %d-row training partition", n, d.Len()*4/5)
		}
	}
}
