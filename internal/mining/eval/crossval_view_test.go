package eval

import (
	"context"
	"reflect"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining"
	"edem/internal/mining/sampling"
	"edem/internal/mining/tree"
	"edem/internal/stats"
)

// instanceOnly strips the ViewFitter refinement off a learner, forcing
// CrossValidate down the instance-based path — the oracle the columnar
// path is compared against.
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

// The columnar fold path (store + identity view + FitView) must yield
// the same folds, models and metrics as the instance path.
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
		t.Fatal("view path diverges from instance path")
	}
}

// With both transform forms set, a ViewFitter learner takes the
// columnar path; results must match the instance path driven by the
// dataset transform, at every worker count (same forked RNG streams).
func TestCrossValidateViewTransformMatchesTransform(t *testing.T) {
	d := viewCVDataset(300, 43)
	tf := func(td *dataset.Dataset, rng *stats.RNG) (*dataset.Dataset, error) {
		return sampling.SMOTE(td, 1, 250, 3, rng)
	}
	vtf := func(st *dataset.Store, rng *stats.RNG) (*dataset.View, error) {
		return sampling.SMOTEView(st, 1, 250, 3, rng)
	}
	want, err := CrossValidate(context.Background(), instanceOnly{}, d,
		CVConfig{Folds: 10, Seed: 43, Transform: tf})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		got, err := CrossValidate(context.Background(), tree.Learner{}, d,
			CVConfig{Folds: 10, Seed: 43, Transform: tf, ViewTransform: vtf, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: view transform diverges from dataset transform", workers)
		}
	}
}

// A ViewFitter learner with only a dataset Transform configured must
// stay on the instance path (the transform has no view form to use).
func TestCrossValidateTransformOnlyUsesInstancePath(t *testing.T) {
	d := viewCVDataset(200, 47)
	tf := func(td *dataset.Dataset, rng *stats.RNG) (*dataset.Dataset, error) {
		return sampling.Undersample(td, 0, 60, rng)
	}
	want, err := CrossValidate(context.Background(), instanceOnly{}, d,
		CVConfig{Folds: 5, Seed: 47, Transform: tf})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CrossValidate(context.Background(), tree.Learner{}, d,
		CVConfig{Folds: 5, Seed: 47, Transform: tf})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("transform-only run diverges between learner wrappers")
	}
}
