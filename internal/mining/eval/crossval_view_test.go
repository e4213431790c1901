package eval

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining"
	"edem/internal/mining/sampling"
	"edem/internal/mining/tree"
	"edem/internal/stats"
)

// instanceOnly strips the ViewFitter refinement off a learner, forcing
// CrossValidate to materialise each fold's view — the oracle the
// FitView path is compared against.
type instanceOnly struct{ l tree.Learner }

func (w instanceOnly) Name() string                                      { return w.l.Name() }
func (w instanceOnly) Fit(d *dataset.Dataset) (mining.Classifier, error) { return w.l.Fit(d) }

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

// The FitView fold path must yield the same folds, models and metrics
// as fitting the materialised view.
func TestCrossValidateViewPathMatchesInstancePath(t *testing.T) {
	d := viewCVDataset(300, 41)
	cfg := CVConfig{Folds: 10, Seed: 41}
	want, err := CrossValidate(context.Background(), instanceOnly{}, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CrossValidate(context.Background(), tree.Learner{}, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("FitView diverges from the materialised view")
	}
}

// Under a sampling transform, a ViewFitter learner reading the view and
// a plain learner fitting its materialisation must agree, at every
// worker count (same forked RNG streams).
func TestCrossValidateViewTransformMatchesTransform(t *testing.T) {
	d := viewCVDataset(300, 43)
	tf := func(st *dataset.Store, rng *stats.RNG) (*dataset.View, error) {
		return sampling.SMOTEView(st, 1, 250, 3, rng)
	}
	want, err := CrossValidate(context.Background(), instanceOnly{}, d,
		CVConfig{Folds: 10, Seed: 43, Transform: tf})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		got, err := CrossValidate(context.Background(), tree.Learner{}, d,
			CVConfig{Folds: 10, Seed: 43, Transform: tf, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: FitView diverges from the materialised view", workers)
		}
	}
}

// sizeRecorder is a learner without FitView that records the size of
// every training set it is handed.
type sizeRecorder struct {
	mu    *sync.Mutex
	sizes *[]int
}

func (sizeRecorder) Name() string { return "size-recorder" }

func (r sizeRecorder) Fit(d *dataset.Dataset) (mining.Classifier, error) {
	r.mu.Lock()
	*r.sizes = append(*r.sizes, d.Len())
	r.mu.Unlock()
	return stubClassifier(d.MajorityClass()), nil
}

// A learner without FitView (PRISM, say) must train on the transformed
// fold, not the raw partition: every training set it sees has exactly
// the size of the view the transform produced.
func TestCrossValidateTransformReachesNonViewFitter(t *testing.T) {
	d := viewCVDataset(200, 47)
	var mu sync.Mutex
	var viewSizes, fitSizes []int
	tf := func(st *dataset.Store, rng *stats.RNG) (*dataset.View, error) {
		v, err := sampling.UndersampleView(st, 0, 60, rng)
		if err == nil {
			mu.Lock()
			viewSizes = append(viewSizes, v.Len())
			mu.Unlock()
			if v.Len() >= len(st.Classes()) {
				t.Errorf("undersampling kept %d of %d rows", v.Len(), len(st.Classes()))
			}
		}
		return v, err
	}
	l := sizeRecorder{mu: &mu, sizes: &fitSizes}
	if _, err := CrossValidate(context.Background(), l, d, CVConfig{Folds: 5, Seed: 47, Transform: tf}); err != nil {
		t.Fatal(err)
	}
	sort.Ints(viewSizes)
	sort.Ints(fitSizes)
	if len(fitSizes) != 5 || !reflect.DeepEqual(viewSizes, fitSizes) {
		t.Fatalf("learner trained on %v, transform produced %v", fitSizes, viewSizes)
	}
}
