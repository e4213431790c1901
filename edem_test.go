package edem

import (
	"context"
	"strings"
	"testing"
)

// smallOpts keeps facade tests fast.
func smallOpts() Options {
	opts := DefaultOptions()
	opts.TestCases = 3
	opts.BitStride = 8
	opts.Folds = 5
	return opts
}

func TestFacadeDatasetIDs(t *testing.T) {
	if got := len(AllDatasetIDs()); got != 18 {
		t.Fatalf("dataset ids = %d", got)
	}
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
	stats := SummarizeCampaign(camp)
	if len(stats) == 0 {
		t.Fatal("no per-variable stats")
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

func TestFacadeFormatsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	ctx := context.Background()
	opts := smallOpts()
	camp, err := Campaign(ctx, "MG-A1", opts)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf, arffBuf, csvBuf strings.Builder
	if err := WriteLog(&logBuf, camp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(strings.NewReader(logBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(camp.Records) {
		t.Fatal("log round trip lost records")
	}
	d, err := Preprocess(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteARFF(&arffBuf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadARFF(strings.NewReader(arffBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatal("ARFF round trip lost instances")
	}
	if err := WriteCSV(&csvBuf, d); err != nil {
		t.Fatal(err)
	}
	d3, err := ReadCSV(strings.NewReader(csvBuf.String()), "csv")
	if err != nil {
		t.Fatal(err)
	}
	if d3.Len() != d.Len() {
		t.Fatal("CSV round trip lost instances")
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
	val, err := ValidateDetector(ctx, rep.ID, rep.Predicate, opts)
	if err != nil {
		t.Fatal(err)
	}
	if val.Counts.TPR() < 0.8 {
		t.Errorf("deployed TPR = %v", val.Counts.TPR())
	}
	lat, err := MeasureLatency(ctx, rep.ID, rep.Predicate, opts)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Detected+lat.Missed != lat.Failures {
		t.Fatal("latency accounting")
	}
	det, err := NewDetector("RGain", Entry, rep.Predicate)
	if err != nil || det.Module != "RGain" {
		t.Fatalf("detector construction: %v", err)
	}
}

// TestFacadeTelemetry exercises the telemetry surface of the facade:
// process-default registry lifecycle, context-local registries, and
// the snapshot export of an instrumented pipeline stage.
func TestFacadeTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	if Telemetry() != nil {
		t.Fatal("telemetry should start disabled")
	}
	reg := EnableTelemetry()
	defer DisableTelemetry()
	if Telemetry() != reg {
		t.Fatal("EnableTelemetry did not install the registry")
	}

	ctx := context.Background()
	camp, err := Campaign(ctx, "MG-B1", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Preprocess(ctx, camp); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["campaign.runs_injected"] == 0 {
		t.Error("campaign.runs_injected not counted")
	}
	if snap.Phases["campaign"].Count != 1 || snap.Phases["preprocess"].Count != 1 {
		t.Errorf("phases = %v", snap.Phases)
	}

	// A context-local registry wins over the process default: spans on
	// the scoped context land in it, not in reg.
	local := NewMetrics()
	lctx, span := StartSpan(WithTelemetry(ctx, local), "facade-span")
	_ = lctx
	span.End()
	if got := local.Snapshot().Phases["facade-span"].Count; got != 1 {
		t.Errorf("context-local span count = %d, want 1", got)
	}
	if _, ok := reg.Snapshot().Phases["facade-span"]; ok {
		t.Error("context-local span leaked into the default registry")
	}

	DisableTelemetry()
	if Telemetry() != nil {
		t.Fatal("DisableTelemetry left a registry installed")
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
// instead of returning a campaign with that test case's cells skipped.
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
	res, err := RunResumableCampaign(context.Background(), goldenPanicTarget{}, spec, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) == 0 {
		t.Fatal("RunResumableCampaign skipped nothing; want test case 1's cells skipped")
	}
}
