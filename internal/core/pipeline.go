package core

import (
	"context"
	"fmt"

	"edem/internal/dataset"
	"edem/internal/mining/eval"
	"edem/internal/mining/sampling"
	"edem/internal/mining/tree"
	"edem/internal/predicate"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// SamplingKind selects the imbalance treatment of a refinement
// configuration.
type SamplingKind int

// Available treatments.
const (
	// NoSampling leaves the training distribution untouched (the
	// baseline configuration of Table III).
	NoSampling SamplingKind = iota + 1
	// Undersampling keeps Percent% of the majority class.
	Undersampling
	// Oversampling adds Percent% minority copies with replacement
	// (SMOTE with q=0).
	Oversampling
	// Smote adds Percent% synthetic minority instances interpolated
	// towards K nearest neighbours.
	Smote
)

// SamplingConfig is one point of the Step 4 refinement grid.
type SamplingConfig struct {
	Kind    SamplingKind
	Percent float64
	K       int
}

// Label renders the configuration in Table IV's S/N notation:
// "85(U)", "300(O)" etc.; K is reported separately.
func (c SamplingConfig) Label() string {
	switch c.Kind {
	case Undersampling:
		return fmt.Sprintf("%.0f(U)", c.Percent)
	case Oversampling, Smote:
		return fmt.Sprintf("%.0f(O)", c.Percent)
	default:
		return "-"
	}
}

// KLabel renders the N column of Table IV ("-" when no neighbour count
// applies).
func (c SamplingConfig) KLabel() string {
	if c.Kind == Smote {
		return fmt.Sprintf("%d", c.K)
	}
	return "-"
}

// view derives the configuration's training view from st: the
// identity view for NoSampling, the sampling treatment's view
// otherwise. ni, when non-nil, is a minority neighbour index over st
// holding at least K neighbours, shared by a fold's grid cells; SMOTE
// reads its neighbours from it instead of searching. Both routes
// consume the same RNG stream and yield the same view.
func (c SamplingConfig) view(st *dataset.Store, ni *sampling.NeighborIndex, rng *stats.RNG) (*dataset.View, error) {
	switch c.Kind {
	case Undersampling:
		return sampling.UndersampleView(st, 0, c.Percent, rng)
	case Oversampling:
		return sampling.OversampleView(st, eval.PositiveClass, c.Percent, rng)
	case Smote:
		if ni != nil {
			return ni.SMOTEView(c.Percent, c.K, rng)
		}
		return sampling.SMOTEView(st, eval.PositiveClass, c.Percent, c.K, rng)
	default:
		return st.IdentityView(), nil
	}
}

// Transform returns the configuration's sampling treatment as a
// dataset-to-dataset function (the view materialised), or nil for
// NoSampling. The pipeline itself trains from views; this adapter is
// kept because the traced benchmark (bench/tracer) replays the final
// fit as Transform followed by FitTree, and must reproduce the final
// fit's predicate (finalFit).
func (c SamplingConfig) Transform() func(*dataset.Dataset, *stats.RNG) (*dataset.Dataset, error) {
	if c.Kind == NoSampling {
		return nil
	}
	return func(d *dataset.Dataset, rng *stats.RNG) (*dataset.Dataset, error) {
		v, err := c.view(dataset.NewStore(d, nil), nil, rng)
		if err != nil {
			return nil, err
		}
		return v.Materialize(), nil
	}
}

// DefaultLearner returns the paper's Step 3 configuration: C4.5 with
// standard settings (CF=0.25, min leaf 2, gain ratio, pruning).
func DefaultLearner() tree.Learner { return tree.Learner{} }

// Baseline runs Step 3: stratified k-fold cross-validation of the
// baseline C4.5 configuration, producing one Table III row. The run is
// recorded as a "baseline" telemetry phase, its cells as
// "baseline/cell". It equals Refine's NoSampling column, which is where
// RunMethodologyOn and Tables take Step 3 from.
func Baseline(ctx context.Context, d *dataset.Dataset, opts Options) (*eval.CVResult, error) {
	ctx, span := telemetry.StartSpan(ctx, "baseline")
	defer span.End()
	return CrossValidate(ctx, DefaultLearner(), d, opts)
}

// RefineGrid returns the Step 4 search grid. The full grid is the
// paper's: 10 undersampling levels over [5,100], 15 oversampling levels
// over [100,1500], SMOTE neighbour counts over [1,15]. The reduced grid
// (full=false) covers the same ranges with fewer points for laptop-scale
// runs.
func RefineGrid(full bool) []SamplingConfig {
	var grid []SamplingConfig
	if full {
		for i := 0; i < 10; i++ {
			grid = append(grid, SamplingConfig{Kind: Undersampling, Percent: 5 + float64(i)*(95.0/9)})
		}
		for i := 0; i < 15; i++ {
			pct := 100 + float64(i)*100
			grid = append(grid, SamplingConfig{Kind: Oversampling, Percent: pct})
			for _, k := range []int{1, 4, 7, 11, 15} {
				grid = append(grid, SamplingConfig{Kind: Smote, Percent: pct, K: k})
			}
		}
		return grid
	}
	for _, pct := range []float64{5, 35, 65, 85} {
		grid = append(grid, SamplingConfig{Kind: Undersampling, Percent: pct})
	}
	for _, pct := range []float64{100, 300, 500, 900, 1500} {
		grid = append(grid, SamplingConfig{Kind: Oversampling, Percent: pct})
		for _, k := range []int{1, 7, 14} {
			grid = append(grid, SamplingConfig{Kind: Smote, Percent: pct, K: k})
		}
	}
	return grid
}

// RefineResult is the outcome of Step 4 for one dataset.
type RefineResult struct {
	Best   SamplingConfig
	BestCV *eval.CVResult
	// Evaluated lists every grid point with its cross-validation
	// result, in grid order.
	Evaluated []struct {
		Config SamplingConfig
		CV     *eval.CVResult
	}
}

// Report is the complete methodology output for one dataset: the
// Table III and Table IV rows plus the deployable predicate.
type Report struct {
	ID        string
	Instances int
	Failures  int

	Baseline *eval.CVResult
	Refined  *RefineResult

	// Tree is the final model fitted on the full (transformed) dataset
	// with the winning configuration.
	Tree *tree.Tree
	// Predicate is the detector predicate extracted from Tree.
	Predicate *predicate.Predicate
}

// RunMethodology executes all four steps for one dataset ID and fits
// the final detector predicate.
func RunMethodology(ctx context.Context, id string, grid []SamplingConfig, opts Options) (*Report, error) {
	d, camp, err := BuildDataset(ctx, id, opts)
	if err != nil {
		return nil, err
	}
	return RunMethodologyOn(ctx, id, d, camp.Failures(), grid, opts)
}

// RunMethodologyOn runs Steps 3-4 on an already-built dataset and fits
// the final predicate. Step 3 is not cross-validated separately: it is
// Refine's first column, the untouched configuration on the same folds.
func RunMethodologyOn(ctx context.Context, id string, d *dataset.Dataset, failures int, grid []SamplingConfig, opts Options) (*Report, error) {
	refined, err := Refine(ctx, d, grid, opts)
	if err != nil {
		return nil, err
	}

	t, err := finalFit(d, refined.Best, opts)
	if err != nil {
		return nil, fmt.Errorf("core: final fit %s: %w", id, err)
	}
	pred, err := predicate.FromTree(t, eval.PositiveClass, id)
	if err != nil {
		return nil, fmt.Errorf("core: predicate %s: %w", id, err)
	}
	return &Report{
		ID:        id,
		Instances: d.Len(),
		Failures:  failures,
		Baseline:  refined.Evaluated[0].CV,
		Refined:   refined,
		Tree:      t,
		Predicate: pred,
	}, nil
}

// finalFit trains the deployed model: the winning configuration's view
// of the whole dataset, induced by C4.5.
func finalFit(d *dataset.Dataset, cfg SamplingConfig, opts Options) (*tree.Tree, error) {
	v, err := cfg.view(dataset.NewStore(d, nil), nil, stats.NewRNG(opts.Seed^0xfeed))
	if err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	return DefaultLearner().FitTreeView(v)
}
