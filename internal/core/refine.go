package core

import (
	"context"
	"fmt"
	"time"

	"edem/internal/dataset"
	"edem/internal/mining"
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
// than Step 3: Evaluated[0] is the untouched configuration, and its
// result is Step 3's.
func Refine(ctx context.Context, d *dataset.Dataset, grid []SamplingConfig, opts Options) (*RefineResult, error) {
	res, _, err := refine(ctx, d, grid, opts)
	return res, err
}

// refine is Refine, also returning the whole dataset's artifacts the
// cross-validation built, which the final fit reuses.
func refine(ctx context.Context, d *dataset.Dataset, grid []SamplingConfig, opts Options) (*RefineResult, *wholeShared, error) {
	ctx, span := telemetry.StartSpan(ctx, "refine")
	defer span.End()
	full := append([]SamplingConfig{{Kind: NoSampling}}, grid...)
	telemetry.FromContext(ctx).Counter("refine.grid_configs").Add(int64(len(full)))
	cvs, whole, err := crossValidate(ctx, DefaultLearner(), d, full, opts)
	if err != nil {
		return nil, nil, err
	}

	res := &RefineResult{}
	for ci, cfg := range full {
		cv := cvs[ci]
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
	return res, whole, nil
}

// CrossValidate runs stratified k-fold cross-validation of learner l on
// d with the training distribution untouched (paper §VII-C: "the data
// was partitioned into 10 stratified samples; for each cross validation
// run, one of the partitions was used as the test sample whilst the
// other nine were used as the training set"). It is the cell loop of
// Refine over the one NoSampling configuration, so with the default
// learner it reproduces Refine's first column bit for bit.
func CrossValidate(ctx context.Context, l mining.Learner, d *dataset.Dataset, opts Options) (*eval.CVResult, error) {
	cvs, _, err := crossValidate(ctx, l, d, []SamplingConfig{{Kind: NoSampling}}, opts)
	if err != nil {
		return nil, err
	}
	return cvs[0], nil
}

// crossValidate is the repository's one cross-validation loop: it
// evaluates learner l under every configuration of configs on the
// stratified folds of opts.Seed and returns one result per
// configuration, in order. Fold rates are those of eval.PositiveClass,
// the failure class; test folds always keep the natural distribution.
//
// It runs in two stages. First every fold's shared artifacts — its
// training store (DESIGN.md §10) and, when the grid has SMOTE points,
// the minority neighbour index over it — are built. The stores are
// built one fold per task, beside one more task that builds the whole
// dataset's store and the shared neighbour search over it
// (sampling.SharedIndex); then each fold whose spans are the whole
// dataset's derives its index from the shared lists, and any other
// fold searches its own. Then the cells run: the unit of scheduling is
// one (configuration, fold) cell, so parallelism scales to
// configurations × folds workers rather than stopping at the fold
// count, and no cell waits on another cell's build. Results are bit-identical for any worker count: each
// cell derives its RNG from the seed and its (fold, configuration)
// grid indices alone — the configuration's position in configs, not
// its value (ROADMAP item 11) — the fold artifacts are only read by
// the cells, and the per-cell metrics are aggregated serially in fold
// order. The whole dataset's artifacts are returned for the final fit;
// they are nil when the grid has no SMOTE point.
func crossValidate(ctx context.Context, l mining.Learner, d *dataset.Dataset, configs []SamplingConfig, opts Options) ([]*eval.CVResult, *wholeShared, error) {
	rng := stats.NewRNG(opts.Seed)
	folds, err := dataset.StratifiedKFold(d, opts.folds(), rng)
	if err != nil {
		return nil, nil, fmt.Errorf("core: cross-validation folds: %w", err)
	}

	maxK := 0
	for _, cfg := range configs {
		if cfg.Kind == Smote && cfg.K > maxK {
			maxK = cfg.K
		}
	}

	reg := telemetry.FromContext(ctx)
	cellsScored := reg.Counter("refine.cells_scored")
	cellNS := reg.Histogram("refine.cell_ns")
	ctrs := refineCounters{
		mergeSyn:    reg.Counter("refine.merge_synthetic_rows"),
		viewEntries: reg.Counter("refine.view_entries"),
		viewNS:      reg.Histogram("refine.view_ns"),
		induceNS:    reg.Histogram("refine.induce_ns"),
	}

	shared := make([]foldShared, len(folds))
	storeBuilds := reg.Counter("refine.store_builds")
	indexBuilds := reg.Counter("refine.index_builds")
	sharedFolds := reg.Counter("refine.index_shared_folds")
	rescans := reg.Counter("refine.index_rescans")
	indexNS := reg.Histogram("refine.index_ns")
	var whole *wholeShared
	tasks := len(folds)
	if maxK > 0 {
		// The shared search is the longest task: task 0, so it starts
		// first.
		whole = new(wholeShared)
		tasks++
	}
	err = parallel.ForEach(ctx, tasks, opts.Workers, func(t int) error {
		if whole != nil {
			if t == 0 {
				whole.store = dataset.NewStore(d, nil)
				storeBuilds.Inc()
				start := time.Now()
				whole.si, _ = sampling.BuildSharedIndex(whole.store, eval.PositiveClass, maxK)
				indexNS.ObserveDuration(time.Since(start))
				indexBuilds.Inc()
				return nil
			}
			t--
		}
		shared[t].store = dataset.NewStore(d, folds[t].Train)
		storeBuilds.Inc()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if whole != nil {
		// A fold without the whole dataset's spans, or a dataset whose
		// shared search failed, searches its own store: that also
		// reports the fold's error, if any.
		err = parallel.ForEach(ctx, len(folds), opts.Workers, func(fi int) error {
			sh := &shared[fi]
			start := time.Now()
			if si := whole.si; si != nil && si.Shares(sh.store) {
				var n int
				sh.ni, n, sh.niErr = si.FoldIndex(sh.store, folds[fi].Train)
				sharedFolds.Inc()
				rescans.Add(int64(n))
			} else {
				sh.ni, sh.niErr = sampling.BuildViewIndex(sh.store, eval.PositiveClass, maxK)
				indexBuilds.Inc()
			}
			indexNS.ObserveDuration(time.Since(start))
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}

	nCfg := len(configs)
	cells := make([]refineCell, nCfg*len(folds))
	// Cell index layout: fold-major, so the cells of one fold are
	// adjacent in the claim order and share the fold's artifacts while
	// they are hot.
	err = parallel.ForEach(ctx, len(cells), opts.Workers, func(idx int) error {
		_, cellSpan := telemetry.StartSpan(ctx, "cell")
		fi, ci := idx/nCfg, idx%nCfg
		if err := refineCellEval(l, d, folds[fi], &shared[fi], configs[ci], opts, fi, ci, &cells[idx], ctrs); err != nil {
			cellSpan.End()
			return fmt.Errorf("core: cross-validation fold %d %s: %w", fi, configs[ci].Label(), err)
		}
		cellNS.Observe(int64(cellSpan.End()))
		cellsScored.Inc()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	cvs := make([]*eval.CVResult, nCfg)
	for ci := range configs {
		var aucW, tprW, fprW, compW stats.Welford
		for fi := range folds {
			cell := &cells[fi*nCfg+ci]
			aucW.Add(cell.counts.AUC())
			tprW.Add(cell.counts.TPR())
			fprW.Add(cell.counts.FPR())
			compW.Add(float64(cell.size))
		}
		cvs[ci] = &eval.CVResult{
			MeanTPR:  tprW.Mean(),
			MeanFPR:  fprW.Mean(),
			MeanAUC:  aucW.Mean(),
			MeanComp: compW.Mean(),
			VarAUC:   aucW.Variance(),
		}
	}
	return cvs, whole, nil
}

// refineCell is one (configuration, fold) evaluation.
type refineCell struct {
	counts eval.BinaryCounts
	size   int
}

// foldShared holds the artifacts every cell of one fold reads: the
// columnar training store and (when the grid contains SMOTE points) the
// minority neighbour index over it, or the error building it, which
// the fold's SMOTE cells report. Both are built before any cell runs
// and are immutable afterwards.
type foldShared struct {
	store *dataset.Store
	ni    *sampling.NeighborIndex
	niErr error
}

// wholeShared holds the whole dataset's store and the shared neighbour
// search over it, built beside the fold stores when the grid has SMOTE
// points. The folds with the whole dataset's spans derive their
// indexes from it, and the final fit trains on the store, with the
// search's own lists. si is nil when the dataset has no minority row.
type wholeShared struct {
	store *dataset.Store
	si    *sampling.SharedIndex
}

// refineCounters carries the cell loop's telemetry handles; the
// counters and the histograms' counts are worker-count-invariant by
// construction.
type refineCounters struct {
	mergeSyn    *telemetry.Counter
	viewEntries *telemetry.Counter
	viewNS      *telemetry.Histogram
	induceNS    *telemetry.Histogram
}

// refineCellEval evaluates one configuration on one fold. The cell RNG
// is seeded from the seed and the cell's grid position (fold index fi,
// configuration index ci), so the result does not depend on which
// worker runs the cell or in what order; it does depend on where the
// configuration sits in the grid (ROADMAP item 11 keys it by the
// configuration instead). Each cell trains the learner from a
// per-configuration view of the fold's shared store. The shared
// neighbour index yields the same views as per-cell neighbour searches.
// The view is released once the model is scored, so the next cell on
// this worker reuses its arrays; the model keeps none of them.
func refineCellEval(l mining.Learner, d *dataset.Dataset, fold dataset.Fold, sh *foldShared, cfg SamplingConfig, opts Options, fi, ci int, cell *refineCell, ctrs refineCounters) error {
	rng := stats.NewRNG(opts.Seed ^ (uint64(fi+1) << 20) ^ uint64(ci+1))
	var ni *sampling.NeighborIndex
	if cfg.Kind == Smote {
		if sh.niErr != nil {
			return fmt.Errorf("neighbour index: %w", sh.niErr)
		}
		ni = sh.ni
	}
	start := time.Now()
	v, err := cfg.view(sh.store, ni, rng)
	if err != nil {
		return fmt.Errorf("transform: %w", err)
	}
	ctrs.viewNS.ObserveDuration(time.Since(start))
	if cfg.Kind == Smote {
		ctrs.mergeSyn.Add(int64(v.Appended()))
		entries := 0
		for _, list := range v.Groups() {
			entries += len(list)
		}
		ctrs.viewEntries.Add(int64(entries))
	}
	start = time.Now()
	model, err := l.FitView(v)
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
	cell.size = mining.ModelSize(model)
	v.Release()
	return nil
}
