package core

import (
	"context"
	"reflect"
	"testing"

	"edem/internal/telemetry"
)

// TestTelemetryCountersWorkerInvariant is the telemetry analogue of the
// pipeline's determinism guarantee: the counters accumulated across
// concurrent workers must equal the serial counts for any -workers
// value. Durations and allocation deltas legitimately vary with
// scheduling, so the property covers counters, histogram counts and
// phase counts — everything that counts work rather than measuring it.
func TestTelemetryCountersWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	type counts struct {
		Counters  map[string]int64
		HistCount map[string]int64
		PhaseN    map[string]int64
	}
	runAt := func(workers int) counts {
		opts := DefaultOptions()
		opts.TestCases = 2
		opts.BitStride = 16
		opts.Workers = workers
		// A context-local registry isolates this run from the process
		// default and from the other worker counts.
		reg := telemetry.New()
		ctx := telemetry.WithRegistry(context.Background(), reg)
		d, _, err := BuildDataset(ctx, "MG-B1", opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if _, err := Baseline(ctx, d, opts); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Two undersampling points plus an oversampling and a SMOTE point,
		// so the store/view/index counters (refine.store_builds,
		// refine.cells_scored, refine.merge_synthetic_rows,
		// refine.view_entries, refine.index_builds,
		// refine.index_shared_folds) all accumulate.
		grid := RefineGrid(false)
		sub := append(grid[:2:2], grid[4:6]...)
		if _, err := Refine(ctx, d, sub, opts); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap := reg.Snapshot()
		// How a forked cell ends early depends on which cell of its
		// column reaches the shared verdict memo first, so these two
		// split the same forked cells differently from run to run.
		delete(snap.Counters, "campaign.fork_converged")
		delete(snap.Counters, "campaign.fork_memo_hits")
		c := counts{
			Counters:  snap.Counters,
			HistCount: map[string]int64{},
			PhaseN:    map[string]int64{},
		}
		for name, h := range snap.Hists {
			c.HistCount[name] = h.Count
		}
		for path, p := range snap.Phases {
			c.PhaseN[path] = p.Count
		}
		return c
	}

	serial := runAt(1)
	if len(serial.Counters) == 0 {
		t.Fatal("serial run recorded no counters")
	}
	for _, name := range []string{"refine.store_builds", "refine.cells_scored", "refine.merge_synthetic_rows", "refine.view_entries", "refine.index_builds", "refine.index_shared_folds"} {
		if serial.Counters[name] <= 0 {
			t.Errorf("counter %s not accumulated: %d", name, serial.Counters[name])
		}
	}
	// One view is built and one tree induced per scored cell, each
	// timed once.
	for _, hist := range []string{"refine.view_ns", "refine.induce_ns"} {
		if got, want := serial.HistCount[hist], serial.Counters["refine.cells_scored"]; got != want || got == 0 {
			t.Errorf("%s count %d, want refine.cells_scored = %d (> 0)", hist, got, want)
		}
	}
	// One index timing per neighbour search and per fold index derived
	// from the shared one.
	if got, want := serial.HistCount["refine.index_ns"], serial.Counters["refine.index_builds"]+serial.Counters["refine.index_shared_folds"]; got != want {
		t.Errorf("refine.index_ns count %d, want refine.index_builds + refine.index_shared_folds = %d", got, want)
	}
	for _, workers := range []int{2, 8} {
		par := runAt(workers)
		if !reflect.DeepEqual(serial.Counters, par.Counters) {
			t.Errorf("counters diverge at workers=%d:\nserial: %v\npar:    %v",
				workers, serial.Counters, par.Counters)
		}
		if !reflect.DeepEqual(serial.HistCount, par.HistCount) {
			t.Errorf("histogram counts diverge at workers=%d:\nserial: %v\npar:    %v",
				workers, serial.HistCount, par.HistCount)
		}
		if !reflect.DeepEqual(serial.PhaseN, par.PhaseN) {
			t.Errorf("phase counts diverge at workers=%d:\nserial: %v\npar:    %v",
				workers, serial.PhaseN, par.PhaseN)
		}
	}
}
