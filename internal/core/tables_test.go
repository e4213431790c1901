package core

import (
	"context"
	"math"
	"testing"

	"edem/internal/telemetry"
)

// TestTablesOnePass pins the one pass behind `edem tables -table 4` at
// the golden scale: every dataset runs one campaign, one preprocess and
// one refine over the reduced grid plus its untouched column, and the
// Table III row read from that refine equals a separate Baseline bit
// for bit.
func TestTablesOnePass(t *testing.T) {
	if testing.Short() {
		t.Skip("18 campaigns and refinement grids; skipped in -short mode")
	}
	opts := DefaultOptions()
	opts.TestCases = 2
	opts.BitStride = 16
	opts.Seed = 1
	reg := telemetry.New()
	ctx := telemetry.WithRegistry(context.Background(), reg)
	ids := AllDatasetIDs()
	var finished int
	rows, err := Tables(ctx, ids, 4, false, opts, func(string) { finished++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ids) || finished != len(ids) {
		t.Fatalf("%d rows, %d progress calls, want %d of each", len(rows), finished, len(ids))
	}
	snap := reg.Snapshot()

	if got, want := snap.Counters["refine.cells_scored"], int64(len(ids)*10*(len(RefineGrid(false))+1)); got != want {
		t.Errorf("refine.cells_scored = %d, want %d", got, want)
	}
	instances := 0
	for i, r := range rows {
		if r.ID != ids[i] || r.Baseline.Dataset != ids[i] || r.Refined.Dataset != ids[i] {
			t.Errorf("row %d holds %s/%s/%s, want %s", i, r.ID, r.Baseline.Dataset, r.Refined.Dataset, ids[i])
		}
		instances += r.Instances
	}
	if got := snap.Counters["preprocess.instances"]; got != int64(instances) {
		t.Errorf("preprocess.instances = %d, want the Table II sum %d", got, instances)
	}
	for _, phase := range []string{"campaign", "preprocess", "refine"} {
		if got := snap.Phases[phase].Count; got != int64(len(ids)) {
			t.Errorf("phase %s ran %d times, want once per dataset (%d)", phase, got, len(ids))
		}
	}
	if _, ok := snap.Phases["baseline"]; ok {
		t.Error("a baseline phase ran: Table III must come from the refine")
	}

	for _, i := range []int{0, 6, 15} { // 7Z-A1, FG-A1, MG-B1
		id := ids[i]
		d, _, err := BuildDataset(context.Background(), id, opts)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := Baseline(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rowBits(rows[i].Baseline), rowBits(rowFromCV(id, cv)); got != want {
			t.Errorf("%s: Table III row %x, Baseline %x", id, got, want)
		}
	}
}

// rowBits is a table row's numbers as raw IEEE-754 bits.
func rowBits(r Row) [5]uint64 {
	return [5]uint64{
		math.Float64bits(r.FPR), math.Float64bits(r.TPR), math.Float64bits(r.AUC),
		math.Float64bits(r.Comp), math.Float64bits(r.Var),
	}
}
