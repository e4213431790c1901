package core

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"edem/internal/dataset"
	"edem/internal/mining/eval"
	"edem/internal/parallel"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// refineDataset builds a small imbalanced two-class dataset directly,
// so Refine's scheduling can be tested without running a campaign.
// Class 1 (the positive/failure class) is the ~20% minority.
func refineDataset(n int, seed uint64) *dataset.Dataset {
	d := dataset.New("refine", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
	}, []string{"ok", "fail"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		class := 0
		if x > 0.8 || (y > 0.9 && x > 0.3) {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, y}, Class: class, Weight: 1})
	}
	return d
}

// TestRefineErrorNoDeadlock is the regression test for the worker-pool
// error path: with every grid cell failing and more cells than workers,
// the old pool deadlocked because a worker exiting on error stopped
// draining the unbuffered job channel while the dispatcher kept
// sending. Refine must instead return the error promptly.
func TestRefineErrorNoDeadlock(t *testing.T) {
	parallel.SetBudget(4)
	defer parallel.SetBudget(0)

	d := refineDataset(120, 1)
	// Percent <= 0 makes every Undersampling transform fail.
	grid := make([]SamplingConfig, 20)
	for i := range grid {
		grid[i] = SamplingConfig{Kind: Undersampling, Percent: -5}
	}
	opts := DefaultOptions()
	opts.Folds = 5
	opts.Workers = 2

	done := make(chan error, 1)
	go func() {
		_, err := Refine(context.Background(), d, grid, opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Refine succeeded with an always-failing grid")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Refine deadlocked on the error path")
	}
}

// TestRefineWorkerCountInvariant pins Refine's determinism contract:
// Workers=1 and Workers=8 must produce identical results (per-cell RNGs
// are derived from (seed, fold, config) alone; aggregation is serial).
func TestRefineWorkerCountInvariant(t *testing.T) {
	parallel.SetBudget(8)
	defer parallel.SetBudget(0)

	grid := []SamplingConfig{
		{Kind: Undersampling, Percent: 50},
		{Kind: Oversampling, Percent: 300},
		{Kind: Smote, Percent: 300, K: 3},
		{Kind: Smote, Percent: 500, K: 5},
	}
	for _, seed := range []uint64{7, 23} {
		d := refineDataset(200, seed)
		opts := DefaultOptions()
		opts.Seed = seed
		opts.Folds = 5

		opts.Workers = 1
		serial, err := Refine(context.Background(), d, grid, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 8
		par, err := Refine(context.Background(), d, grid, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Evaluated, par.Evaluated) {
			t.Errorf("seed %d: Workers=1 and Workers=8 grid evaluations differ", seed)
		}
		if serial.Best != par.Best {
			t.Errorf("seed %d: winning config differs: %+v vs %+v", seed, serial.Best, par.Best)
		}
	}
}

// cvBits returns the bit patterns of a cross-validation result's five
// fields, so results compare exactly (NaN and -0 included).
func cvBits(cv *eval.CVResult) [5]uint64 {
	return [5]uint64{
		math.Float64bits(cv.MeanTPR), math.Float64bits(cv.MeanFPR), math.Float64bits(cv.MeanAUC),
		math.Float64bits(cv.MeanComp), math.Float64bits(cv.VarAUC),
	}
}

// TestRunMethodologyCrossValidatesOnce pins that Steps 3 and 4 share
// one cross-validation pass: RunMethodologyOn scores (len(grid)+1) ×
// folds cells, all inside Refine, and Step 3's result is Refine's
// NoSampling column.
func TestRunMethodologyCrossValidatesOnce(t *testing.T) {
	d := refineDataset(200, 5)
	grid := []SamplingConfig{
		{Kind: Undersampling, Percent: 50},
		{Kind: Oversampling, Percent: 300},
		{Kind: Smote, Percent: 300, K: 3},
	}
	opts := DefaultOptions()
	opts.Folds = 5
	reg := telemetry.New()
	ctx := telemetry.WithRegistry(context.Background(), reg)
	rep, err := RunMethodologyOn(ctx, "refine", d, 0, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	want := int64((len(grid) + 1) * opts.Folds)
	if got := snap.Counters["refine.cells_scored"]; got != want {
		t.Errorf("refine.cells_scored = %d, want %d", got, want)
	}
	if got := snap.Hists["refine.induce_ns"].Count; got != want {
		t.Errorf("%d models induced, want %d", got, want)
	}
	var phases []string
	for path := range snap.Phases {
		phases = append(phases, path)
	}
	sort.Strings(phases)
	if !reflect.DeepEqual(phases, []string{"refine", "refine/cell"}) {
		t.Errorf("phases = %v, want only refine and refine/cell", phases)
	}
	if rep.Refined.Evaluated[0].Config.Kind != NoSampling {
		t.Fatal("first evaluated config should be the baseline")
	}
	if got, want := cvBits(rep.Baseline), cvBits(rep.Refined.Evaluated[0].CV); got != want {
		t.Errorf("Report.Baseline %x != Refined.Evaluated[0].CV %x", got, want)
	}
	base, err := Baseline(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cvBits(base), cvBits(rep.Baseline); got != want {
		t.Errorf("Baseline %x != Report.Baseline %x", got, want)
	}
}

// TestRefineNoGeneralFits pins the one training path on the datasets
// the benchmark generates from: the counting builder is the only one,
// so the snapshot counts neither general fits nor view hits (which
// would equal refine.cells_scored), every cell is scored, and the
// SMOTE points place synthetic rows into extend views.
func TestRefineNoGeneralFits(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign and refinement grid; skipped in -short mode")
	}
	for _, id := range []string{"KV-A2", "MG-B1"} {
		opts := DefaultOptions()
		opts.TestCases = 2
		opts.BitStride = 4
		reg := telemetry.New()
		ctx := telemetry.WithRegistry(context.Background(), reg)
		d, _, err := BuildDataset(ctx, id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, err := Refine(ctx, d, RefineGrid(false), opts); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		c := reg.Snapshot().Counters
		for _, gone := range []string{"refine.general_fits", "refine.view_hits"} {
			if _, ok := c[gone]; ok {
				t.Errorf("%s: the snapshot still counts %s", id, gone)
			}
		}
		if want := int64(len(RefineGrid(false))+1) * int64(opts.folds()); c["refine.cells_scored"] != want {
			t.Errorf("%s: cells_scored %d, want %d", id, c["refine.cells_scored"], want)
		}
		if c["refine.merge_synthetic_rows"] == 0 {
			t.Errorf("%s: no synthetic rows merged", id)
		}
	}
}
