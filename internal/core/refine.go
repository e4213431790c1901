package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"edem/internal/dataset"
	"edem/internal/mining/eval"
	"edem/internal/mining/sampling"
	"edem/internal/parallel"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// Refine runs Step 4: every grid configuration is cross-validated on
// the SAME stratified folds as the baseline and the configuration with
// the best mean AUC is selected (ties: fewer mean nodes). The baseline
// configuration competes too, so refinement never reports a worse model
// than Step 3.
//
// The unit of scheduling is one (configuration, fold) cell, so
// parallelism scales to configurations × folds workers rather than
// stopping at the fold count. Results are bit-identical for any worker
// count: each cell derives its RNG from (seed, fold, config) alone, and
// the per-fold shared artifacts (training partition, SMOTE neighbour
// index) are built once on first use and only read afterwards.
func Refine(ctx context.Context, d *dataset.Dataset, grid []SamplingConfig, opts Options) (*RefineResult, error) {
	ctx, span := telemetry.StartSpan(ctx, "refine")
	defer span.End()
	full := append([]SamplingConfig{{Kind: NoSampling}}, grid...)

	// Folds must match Baseline: same RNG construction as
	// eval.CrossValidate with the same seed.
	rng := stats.NewRNG(opts.Seed)
	folds, err := dataset.StratifiedKFold(d, opts.folds(), rng)
	if err != nil {
		return nil, fmt.Errorf("core: refine folds: %w", err)
	}

	maxK := 0
	for _, cfg := range full {
		if cfg.Kind == Smote && cfg.K > maxK {
			maxK = cfg.K
		}
	}

	nCfg := len(full)
	cells := make([]refineCell, nCfg*len(folds))
	shared := make([]foldShared, len(folds))

	reg := telemetry.FromContext(ctx)
	reg.Counter("refine.grid_configs").Add(int64(nCfg))
	cellsScored := reg.Counter("refine.cells_scored")
	cellNS := reg.Histogram("refine.cell_ns")
	ctrs := refineCounters{
		storeBuilds: reg.Counter("refine.store_builds"),
		viewHits:    reg.Counter("refine.view_hits"),
		mergeSyn:    reg.Counter("refine.merge_synthetic_rows"),
		indexBuilds: reg.Counter("refine.index_builds"),
		indexNS:     reg.Histogram("refine.index_ns"),
		viewNS:      reg.Histogram("refine.view_ns"),
		induceNS:    reg.Histogram("refine.induce_ns"),
	}

	// Cell index layout: fold-major, so the cells of one fold are
	// adjacent in the claim order and the fold's lazily-built artifacts
	// are hot when its remaining cells run.
	err = parallel.ForEach(ctx, len(cells), opts.Workers, func(idx int) error {
		_, cellSpan := telemetry.StartSpan(ctx, "cell")
		fi, ci := idx/nCfg, idx%nCfg
		if err := refineCellEval(d, folds[fi], &shared[fi], full[ci], maxK, opts, fi, ci, &cells[idx], ctrs); err != nil {
			cellSpan.End()
			return fmt.Errorf("core: refine fold %d %s: %w", fi, full[ci].Label(), err)
		}
		cellNS.Observe(int64(cellSpan.End()))
		cellsScored.Inc()
		return nil
	})
	if err != nil {
		return nil, err
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

// refineCell is one (configuration, fold) evaluation.
type refineCell struct {
	counts eval.BinaryCounts
	size   int
}

// foldShared holds the artifacts every cell of one fold reads: the
// columnar training store (DESIGN.md §10) and (when the grid contains
// SMOTE points) the minority neighbour index over it. Both are built
// exactly once, by whichever cell of the fold is scheduled first, and
// are immutable afterwards.
type foldShared struct {
	storeOnce sync.Once
	store     *dataset.Store

	niOnce sync.Once
	ni     *sampling.NeighborIndex
	niErr  error
}

// refineCounters carries the telemetry handles hoisted out of the cell
// loop; the counters and the histograms' counts are
// worker-count-invariant by construction.
type refineCounters struct {
	storeBuilds *telemetry.Counter
	viewHits    *telemetry.Counter
	mergeSyn    *telemetry.Counter
	indexBuilds *telemetry.Counter
	indexNS     *telemetry.Histogram
	viewNS      *telemetry.Histogram
	induceNS    *telemetry.Histogram
}

func (s *foldShared) trainStore(d *dataset.Dataset, fold dataset.Fold, storeBuilds *telemetry.Counter) *dataset.Store {
	s.storeOnce.Do(func() {
		s.store = dataset.NewStore(d, fold.Train)
		storeBuilds.Inc()
	})
	return s.store
}

func (s *foldShared) index(st *dataset.Store, maxK int, ctrs refineCounters) (*sampling.NeighborIndex, error) {
	s.niOnce.Do(func() {
		start := time.Now()
		s.ni, s.niErr = sampling.BuildViewIndex(st, eval.PositiveClass, maxK)
		ctrs.indexNS.ObserveDuration(time.Since(start))
		ctrs.indexBuilds.Inc()
		if s.niErr != nil {
			s.niErr = fmt.Errorf("neighbour index: %w", s.niErr)
		}
	})
	return s.ni, s.niErr
}

// refineCellEval evaluates one configuration on one fold. The cell RNG
// is seeded from (seed, fold, config) so the result does not depend on
// which worker runs the cell or in what order. Each cell trains from a
// per-configuration view of the fold's shared store; the shared
// neighbour index yields the same views as per-cell neighbour searches,
// so results do not depend on which cell built it. The view is released
// once the model is scored, so the next cell on this worker reuses its
// arrays; the model keeps none of them.
func refineCellEval(d *dataset.Dataset, fold dataset.Fold, sh *foldShared, cfg SamplingConfig, maxK int, opts Options, fi, ci int, cell *refineCell, ctrs refineCounters) error {
	st := sh.trainStore(d, fold, ctrs.storeBuilds)

	rng := stats.NewRNG(opts.Seed ^ (uint64(fi+1) << 20) ^ uint64(ci+1))
	var ni *sampling.NeighborIndex
	if cfg.Kind == Smote {
		var err error
		if ni, err = sh.index(st, maxK, ctrs); err != nil {
			return err
		}
	}
	start := time.Now()
	v, err := cfg.view(st, ni, rng)
	if err != nil {
		return fmt.Errorf("transform: %w", err)
	}
	ctrs.viewNS.ObserveDuration(time.Since(start))
	if !v.HasMissing() {
		ctrs.viewHits.Inc()
		if cfg.Kind == Smote {
			ctrs.mergeSyn.Add(int64(v.Appended()))
		}
	}
	start = time.Now()
	model, err := DefaultLearner().FitTreeView(v)
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	ctrs.induceNS.ObserveDuration(time.Since(start))
	cm := eval.NewConfusionMatrix(d.ClassValues)
	for _, ti := range fold.Test {
		in := &d.Instances[ti]
		if err := cm.Record(in.Class, model.Classify(in.Values), in.Weight); err != nil {
			return err
		}
	}
	cell.counts = cm.Binary(eval.PositiveClass)
	cell.size = model.Size()
	v.Release()
	return nil
}
