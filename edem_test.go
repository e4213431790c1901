package edem

import (
	"context"
	"strings"
	"testing"

	"edem/internal/campaign"
)

// smallOpts keeps facade tests fast.
func smallOpts() Options {
	opts := DefaultOptions()
	opts.TestCases = 3
	opts.BitStride = 8
	opts.Folds = 5
	return opts
}

func TestFacadeCampaignToPredicate(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	ctx := context.Background()
	opts := smallOpts()

	camp, err := Campaign(ctx, "MG-B1", opts)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Failures() == 0 {
		t.Fatal("no failures")
	}

	d, err := Preprocess(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := Baseline(ctx, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cv.MeanAUC < 0.9 {
		t.Errorf("AUC = %v", cv.MeanAUC)
	}

	tree, err := C45().FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := PredicateFromTree(tree, 1, "facade")
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Clauses) == 0 {
		t.Fatal("empty predicate")
	}
	// Round trip through the serialised form.
	data, err := pred.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "clauses") {
		t.Error("serialised predicate missing clauses")
	}
}

func TestFacadeDetectorLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline; skipped in -short mode")
	}
	ctx := context.Background()
	opts := smallOpts()
	grid := []SamplingConfig{{Kind: Oversampling, Percent: 300}}
	rep, err := RunMethodology(ctx, "MG-B1", grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	val, err := Confirm(ctx, rep.ID, rep.Predicate, opts)
	if err != nil {
		t.Fatal(err)
	}
	if val.Counts.TPR() < 0.8 {
		t.Errorf("deployed TPR = %v", val.Counts.TPR())
	}
	det, err := NewDetector("RGain", Entry, rep.Predicate)
	if err != nil || det.Module != "RGain" {
		t.Fatalf("detector construction: %v", err)
	}
}

// goldenPanicTarget panics on its second test case whatever the probe,
// so that test case's golden run fails.
type goldenPanicTarget struct{}

func (goldenPanicTarget) Name() string { return "GoldenPanic" }

func (goldenPanicTarget) Modules() []ModuleInfo {
	return []ModuleInfo{{Name: "M", Vars: []VarDecl{{Name: "x", Kind: Int64Kind}}}}
}

func (goldenPanicTarget) TestCases(n int, seed uint64) []TestCase {
	tcs := make([]TestCase, n)
	for i := range tcs {
		tcs[i] = TestCase{ID: i, Seed: seed + uint64(i)}
	}
	return tcs
}

func (goldenPanicTarget) Run(tc TestCase, probe Probe) (any, error) {
	if tc.ID == 1 {
		panic("golden run crashes")
	}
	var x int64 = 7
	vars := []VarRef{Int64Ref("x", &x)}
	probe.Visit("M", Entry, vars)
	probe.Visit("M", Exit, vars)
	return x, nil
}

func (goldenPanicTarget) Failed(_ TestCase, golden, observed any) bool { return golden != observed }

// TestFacadeRunCampaignRefusesFailedGolden checks that RunCampaign,
// which runs on the campaign engine, still fails when a golden run does
// instead of returning a campaign with that test case's cells skipped,
// as the engine itself reports them.
func TestFacadeRunCampaignRefusesFailedGolden(t *testing.T) {
	spec := Spec{
		Dataset:        "PANIC-1",
		Module:         "M",
		InjectAt:       Entry,
		SampleAt:       Exit,
		InjectionTimes: []int{1},
		TestCases:      2,
		Seed:           1,
	}
	camp, err := RunCampaign(context.Background(), goldenPanicTarget{}, spec)
	if err == nil || !strings.Contains(err.Error(), "golden run") {
		t.Fatalf("RunCampaign = %v, %v; want a golden-run error", camp, err)
	}
	res, err := campaign.Run(context.Background(), goldenPanicTarget{}, spec, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) == 0 {
		t.Fatal("campaign.Run skipped nothing; want test case 1's cells skipped")
	}
}
