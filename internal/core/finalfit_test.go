package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining/eval"
	"edem/internal/mining/sampling"
	"edem/internal/predicate"
	"edem/internal/stats"
)

// transformThenFit is the traced benchmark's replay of the final fit
// (bench/tracer): SamplingConfig.Transform on the whole dataset, then
// FitTree on the result.
func transformThenFit(t *testing.T, d *dataset.Dataset, cfg SamplingConfig, opts Options) *predicate.Predicate {
	t.Helper()
	final := d
	if tf := cfg.Transform(); tf != nil {
		var err error
		if final, err = tf(d, stats.NewRNG(opts.Seed^0xfeed)); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := DefaultLearner().FitTree(final)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predicate.FromTree(tr, eval.PositiveClass, "final")
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// The traced benchmark fails a run whose in-process predicate differs
// from edem run's, so Transform followed by FitTree must reproduce the
// final fit for every sampling kind, with and without the ±1e308
// clamps propane.ToDataset substitutes for non-finite values.
func TestTransformThenFitTreeMatchesFinalFit(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 5
	clamped := refineDataset(300, 7)
	for i := 0; i < clamped.Len(); i += 13 {
		clamped.Instances[i].Values[0] = math.Copysign(1e308, float64(i%2)-0.5)
	}
	sets := []struct {
		name string
		d    *dataset.Dataset
	}{{"plain", refineDataset(300, 5)}, {"clamped", clamped}}
	cfgs := []SamplingConfig{
		{Kind: NoSampling},
		{Kind: Undersampling, Percent: 35},
		{Kind: Oversampling, Percent: 300},
		{Kind: Smote, Percent: 300, K: 7},
	}
	for _, set := range sets {
		for _, cfg := range cfgs {
			// A SMOTE fit takes its neighbours from the shared search, as
			// after a grid with SMOTE points; without one it is refused.
			var whole *wholeShared
			if cfg.Kind == Smote {
				if _, err := finalFit(set.d, cfg, nil, opts); err == nil {
					t.Errorf("%s: SMOTE final fit without a neighbour index succeeded", set.name)
				}
				whole = &wholeShared{store: dataset.NewStore(set.d, nil)}
				var err error
				if whole.si, err = sampling.BuildSharedIndex(whole.store, eval.PositiveClass, cfg.K); err != nil {
					t.Fatal(err)
				}
			}
			tr, err := finalFit(set.d, cfg, whole, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := predicate.FromTree(tr, eval.PositiveClass, "final")
			if err != nil {
				t.Fatal(err)
			}
			if got := transformThenFit(t, set.d, cfg, opts); !reflect.DeepEqual(want, got) {
				t.Errorf("%s %s K=%s: Transform+FitTree gives %s, final fit %s", set.name, cfg.Label(), cfg.KLabel(), got, want)
			}
		}
	}
}

// RunMethodologyOn's deployed predicate is the final fit of the winning
// configuration.
func TestRunMethodologyPredicateMatchesTransform(t *testing.T) {
	d := refineDataset(300, 9)
	opts := DefaultOptions()
	opts.Seed = 9
	opts.Folds = 5
	grid := []SamplingConfig{
		{Kind: Undersampling, Percent: 35},
		{Kind: Oversampling, Percent: 300},
		{Kind: Smote, Percent: 300, K: 7},
	}
	rep, err := RunMethodologyOn(context.Background(), "final", d, 0, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := transformThenFit(t, d, rep.Refined.Best, opts); !reflect.DeepEqual(rep.Predicate, got) {
		t.Fatalf("best %s: Transform+FitTree gives %s, RunMethodologyOn %s", rep.Refined.Best.Label(), got, rep.Predicate)
	}
}
