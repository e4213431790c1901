package core

import (
	"context"
	"reflect"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining/eval"
	"edem/internal/mining/sampling"
	"edem/internal/parallel"
	"edem/internal/stats"
)

// refineReference is the unshared refinement loop: a fresh store per
// cell, standalone sampling transforms with no shared neighbour index,
// FitTree on the materialised view. It is the oracle Refine (fold-shared
// stores and indexes, parallel cells, FitTreeView) must match bit for
// bit — same cell RNG derivation, same fold construction, same serial
// aggregation.
func refineReference(d *dataset.Dataset, grid []SamplingConfig, opts Options) (*RefineResult, error) {
	full := append([]SamplingConfig{{Kind: NoSampling}}, grid...)
	rng := stats.NewRNG(opts.Seed)
	folds, err := dataset.StratifiedKFold(d, opts.folds(), rng)
	if err != nil {
		return nil, err
	}

	nCfg := len(full)
	cells := make([]refineCell, nCfg*len(folds))
	for fi, fold := range folds {
		for ci, cfg := range full {
			cellRNG := stats.NewRNG(opts.Seed ^ (uint64(fi+1) << 20) ^ uint64(ci+1))
			st := dataset.NewStore(d, fold.Train)
			v := st.IdentityView()
			switch cfg.Kind {
			case Undersampling:
				v, err = sampling.UndersampleView(st, 0, cfg.Percent, cellRNG)
			case Oversampling:
				v, err = sampling.OversampleView(st, eval.PositiveClass, cfg.Percent, cellRNG)
			case Smote:
				var ni *sampling.NeighborIndex
				if ni, err = sampling.BuildViewIndex(st, eval.PositiveClass, cfg.K); err == nil {
					v, err = ni.SMOTEView(cfg.Percent, cfg.K, cellRNG)
				}
			}
			if err != nil {
				return nil, err
			}
			model, err := DefaultLearner().FitTree(v.Materialize())
			if err != nil {
				return nil, err
			}
			cm := eval.NewConfusionMatrix(d.ClassValues)
			for _, ti := range fold.Test {
				in := &d.Instances[ti]
				if err := cm.Record(in.Class, model.Classify(in.Values), in.Weight); err != nil {
					return nil, err
				}
			}
			cells[fi*nCfg+ci] = refineCell{counts: cm.Binary(eval.PositiveClass), size: model.Size()}
		}
	}

	res := &RefineResult{}
	for ci, cfg := range full {
		cv := &eval.CVResult{}
		var aucW, tprW, fprW, compW stats.Welford
		for fi := range folds {
			cell := &cells[fi*nCfg+ci]
			aucW.Add(cell.counts.AUC())
			tprW.Add(cell.counts.TPR())
			fprW.Add(cell.counts.FPR())
			compW.Add(float64(cell.size))
		}
		cv.MeanAUC = aucW.Mean()
		cv.MeanTPR = tprW.Mean()
		cv.MeanFPR = fprW.Mean()
		cv.MeanComp = compW.Mean()
		cv.VarAUC = aucW.Variance()
		res.Evaluated = append(res.Evaluated, struct {
			Config SamplingConfig
			CV     *eval.CVResult
		}{cfg, cv})
		if res.BestCV == nil ||
			cv.MeanAUC > res.BestCV.MeanAUC ||
			(cv.MeanAUC == res.BestCV.MeanAUC && cv.MeanComp < res.BestCV.MeanComp) {
			res.Best = cfg
			res.BestCV = cv
		}
	}
	return res, nil
}

// TestRefineMatchesInstancePath pins the grid's sharing invariant: the
// fold-shared stores and neighbour index produce byte-identical results
// to the unshared reference, at every worker count. Every grid shape is
// exercised (no-sampling, undersample, oversample, SMOTE at two
// percent/K points, including percent<100 planning).
func TestRefineMatchesInstancePath(t *testing.T) {
	parallel.SetBudget(8)
	defer parallel.SetBudget(0)

	grid := []SamplingConfig{
		{Kind: Undersampling, Percent: 35},
		{Kind: Undersampling, Percent: 85},
		{Kind: Oversampling, Percent: 40},
		{Kind: Oversampling, Percent: 300},
		{Kind: Smote, Percent: 60, K: 3},
		{Kind: Smote, Percent: 400, K: 5},
	}
	for _, seed := range []uint64{3, 17} {
		d := refineDataset(250, seed)
		opts := DefaultOptions()
		opts.Seed = seed
		opts.Folds = 5

		want, err := refineReference(d, grid, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			opts.Workers = workers
			got, err := Refine(context.Background(), d, grid, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("seed %d workers %d: Refine diverges from the unshared reference", seed, workers)
			}
		}
	}
}
