package core

import (
	"context"
	"strings"
	"testing"

	"edem/internal/mining/eval"
	"edem/internal/predicate"
	"edem/internal/propane"
)

func TestAllDatasetIDs(t *testing.T) {
	ids := AllDatasetIDs()
	if len(ids) != 18 {
		t.Fatalf("ids = %d, want 18 (Table II)", len(ids))
	}
	if ids[0] != "7Z-A1" || ids[17] != "MG-B3" {
		t.Fatalf("ordering: %v", ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestSpecForAllIDs(t *testing.T) {
	opts := DefaultOptions()
	for _, id := range AllDatasetIDs() {
		target, spec, err := SpecFor(id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: invalid spec: %v", id, err)
		}
		if _, ok := propane.Module(target, spec.Module); !ok {
			t.Fatalf("%s: module %q not in target %q", id, spec.Module, target.Name())
		}
		// Location triples must follow Table II.
		switch id[4] {
		case '1':
			if spec.InjectAt != propane.Entry || spec.SampleAt != propane.Entry {
				t.Errorf("%s: locations %v/%v", id, spec.InjectAt, spec.SampleAt)
			}
		case '2':
			if spec.InjectAt != propane.Entry || spec.SampleAt != propane.Exit {
				t.Errorf("%s: locations %v/%v", id, spec.InjectAt, spec.SampleAt)
			}
		case '3':
			if spec.InjectAt != propane.Exit || spec.SampleAt != propane.Exit {
				t.Errorf("%s: locations %v/%v", id, spec.InjectAt, spec.SampleAt)
			}
		}
	}
}

func TestSpecForErrors(t *testing.T) {
	opts := DefaultOptions()
	for _, id := range []string{"", "XX-A1", "7Z-Z1", "7Z-A9", "7ZA1", "7Z_A1"} {
		if _, _, err := SpecFor(id, opts); err == nil {
			t.Errorf("SpecFor(%q) should fail", id)
		}
	}
}

func TestInfo(t *testing.T) {
	info, err := Info("FG-B2", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if info.Target != "FlightGear" || info.Module != "Mass" ||
		info.InjectAt != propane.Entry || info.SampleAt != propane.Exit {
		t.Fatalf("info = %+v", info)
	}
}

func TestRefineGridShapes(t *testing.T) {
	reduced := RefineGrid(false)
	full := RefineGrid(true)
	if len(full) <= len(reduced) {
		t.Fatalf("full grid (%d) should exceed reduced (%d)", len(full), len(reduced))
	}
	// The paper's full grid: 10 undersampling levels in [5,100], 15
	// oversampling levels in [100,1500], SMOTE k in [1,15].
	var u, o, s int
	for _, cfg := range full {
		switch cfg.Kind {
		case Undersampling:
			u++
			if cfg.Percent < 5 || cfg.Percent > 100 {
				t.Errorf("undersampling level %v out of [5,100]", cfg.Percent)
			}
		case Oversampling:
			o++
			if cfg.Percent < 100 || cfg.Percent > 1500 {
				t.Errorf("oversampling level %v out of [100,1500]", cfg.Percent)
			}
		case Smote:
			s++
			if cfg.K < 1 || cfg.K > 15 {
				t.Errorf("SMOTE k %d out of [1,15]", cfg.K)
			}
		}
	}
	if u != 10 || o != 15 || s == 0 {
		t.Errorf("full grid composition: %d U, %d O, %d SMOTE", u, o, s)
	}
}

func TestSamplingConfigLabels(t *testing.T) {
	if (SamplingConfig{Kind: Undersampling, Percent: 85}).Label() != "85(U)" {
		t.Error("undersampling label")
	}
	if (SamplingConfig{Kind: Oversampling, Percent: 300}).Label() != "300(O)" {
		t.Error("oversampling label")
	}
	if (SamplingConfig{Kind: Smote, Percent: 500, K: 7}).Label() != "500(O)" {
		t.Error("smote label")
	}
	if (SamplingConfig{Kind: Smote, K: 7}).KLabel() != "7" {
		t.Error("smote k label")
	}
	if (SamplingConfig{Kind: Undersampling}).KLabel() != "-" {
		t.Error("undersampling k label")
	}
	if (SamplingConfig{Kind: NoSampling}).Label() != "-" {
		t.Error("baseline label")
	}
}

func TestFormatTable(t *testing.T) {
	rows := []Row{{Dataset: "7Z-A1", FPR: 2e-5, TPR: 0.9979, AUC: 0.9989, Comp: 19, Var: 3e-8}}
	s := formatTable("Table III", rows)
	if !strings.Contains(s, "7Z-A1") || !strings.Contains(s, "Dataset") {
		t.Errorf("format:\n%s", s)
	}
	rows[0].S, rows[0].N = "85(U)", "-"
	s4 := formatTable("Table IV", rows)
	if !strings.Contains(s4, "85(U)") {
		t.Errorf("refined format:\n%s", s4)
	}
}

func TestPaperTablesComplete(t *testing.T) {
	for _, id := range AllDatasetIDs() {
		if _, ok := PaperTable3[id]; !ok {
			t.Errorf("PaperTable3 missing %s", id)
		}
		if _, ok := PaperTable4[id]; !ok {
			t.Errorf("PaperTable4 missing %s", id)
		}
	}
}

// TestPipelineEndToEnd runs the full methodology (Steps 1-4) on a small
// campaign and validates the deployed predicate (§VII-D).
func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline; skipped in -short mode")
	}
	opts := DefaultOptions()
	opts.TestCases = 4
	opts.BitStride = 4
	opts.Folds = 5

	grid := []SamplingConfig{
		{Kind: Undersampling, Percent: 50},
		{Kind: Oversampling, Percent: 300},
		{Kind: Smote, Percent: 300, K: 3},
	}
	rep, err := RunMethodology(context.Background(), "MG-B1", grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline == nil || rep.Refined == nil || rep.Tree == nil || rep.Predicate == nil {
		t.Fatal("incomplete report")
	}
	if rep.Refined.BestCV.MeanAUC+1e-9 < rep.Baseline.MeanAUC {
		t.Errorf("refinement regressed AUC: %v < %v", rep.Refined.BestCV.MeanAUC, rep.Baseline.MeanAUC)
	}
	if len(rep.Refined.Evaluated) != len(grid)+1 {
		t.Errorf("evaluated %d configs, want %d", len(rep.Refined.Evaluated), len(grid)+1)
	}

	// Re-validation on a fresh workload: rates must be commensurate
	// with cross-validation (paper §VII-D).
	val, err := Confirm(context.Background(), rep.ID, rep.Predicate, opts)
	if err != nil {
		t.Fatal(err)
	}
	if val.Runs == 0 {
		t.Fatal("no validation runs")
	}
	if tpr := val.Counts.TPR(); tpr < rep.Refined.BestCV.MeanTPR-0.25 {
		t.Errorf("deployed TPR %.3f far below CV %.3f", tpr, rep.Refined.BestCV.MeanTPR)
	}
	if fpr := val.Counts.FPR(); fpr > 0.08 {
		t.Errorf("deployed FPR %.3f too high", fpr)
	}
}

// TestRefineMatchesBaselineOnNoSampling checks that Baseline and
// Refine's evaluation of the untouched configuration both reproduce the
// unshared reference loop bit for bit in all five fields (same folds,
// same learner).
func TestRefineMatchesBaselineOnNoSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	opts := DefaultOptions()
	opts.TestCases = 3
	opts.BitStride = 8
	opts.Folds = 5
	d, _, err := BuildDataset(context.Background(), "MG-A1", opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Baseline(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Refine(context.Background(), d, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refineReference(d, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	noSampling := ref.Evaluated[0]
	if noSampling.Config.Kind != NoSampling {
		t.Fatal("first evaluated config should be the baseline")
	}
	if got, want := cvBits(base), cvBits(want.Evaluated[0].CV); got != want {
		t.Errorf("baseline %x != reference %x", got, want)
	}
	if got, want := cvBits(noSampling.CV), cvBits(want.Evaluated[0].CV); got != want {
		t.Errorf("refine NoSampling %x != reference %x", got, want)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("18 campaigns; skipped in -short mode")
	}
	opts := DefaultOptions()
	opts.TestCases = 2
	opts.BitStride = 16
	rows, err := Tables(context.Background(), AllDatasetIDs(), 2, false, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("rows = %d", len(rows))
	}
	s := FormatTables(rows, 2)
	for _, want := range []string{"7Z-A1", "FlightGear", "GAnalysis", "Exit"} {
		if !strings.Contains(s, want) {
			t.Errorf("table II missing %q", want)
		}
	}
	for _, r := range rows {
		if r.Instances == 0 {
			t.Errorf("%s: empty campaign", r.ID)
		}
	}
}

func TestValidationCounts(t *testing.T) {
	// eval.BinaryCounts arithmetic on the confirmation path.
	var v Confirmation
	v.Counts = eval.BinaryCounts{TP: 9, FN: 1, FP: 0, TN: 90}
	if v.Counts.TPR() != 0.9 || v.Counts.FPR() != 0 {
		t.Fatal("counts arithmetic")
	}
}

// TestMeasureLatency confirms a learnt detector on a small campaign,
// tracing every failing run to the first alarm, and checks the latency
// accounting.
func TestMeasureLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("tracing campaign; skipped in -short mode")
	}
	opts := DefaultOptions()
	opts.TestCases = 3
	opts.BitStride = 8
	ctx := context.Background()
	d, _, err := BuildDataset(ctx, "MG-B1", opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DefaultLearner().FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predicate.FromTree(tr, eval.PositiveClass, "MG-B1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Confirm(ctx, "MG-B1", pred, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures traced")
	}
	if res.Detected+res.Missed != res.Failures {
		t.Fatalf("accounting: %d + %d != %d", res.Detected, res.Missed, res.Failures)
	}
	if res.Detected == 0 {
		t.Fatal("detector found nothing")
	}
	if res.MeanLatency < 0 || float64(res.MaxLatency) < res.MeanLatency {
		t.Fatalf("latency stats inconsistent: mean %v max %d", res.MeanLatency, res.MaxLatency)
	}
	if res.ImmediateRate < 0 || res.ImmediateRate > 1 {
		t.Fatalf("immediate rate = %v", res.ImmediateRate)
	}
	t.Logf("failures=%d detected=%d missed=%d meanLat=%.2f maxLat=%d immediate=%.2f",
		res.Failures, res.Detected, res.Missed, res.MeanLatency, res.MaxLatency, res.ImmediateRate)
}

// TestRangeCheckEAComparison measures the paper's headline contrast:
// the learnt predicate must dominate the golden-range executable
// assertion on at least one of completeness and accuracy without being
// worse on the other (AUC strictly higher).
func TestRangeCheckEAComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns; skipped in -short mode")
	}
	opts := DefaultOptions()
	opts.TestCases = 4
	opts.BitStride = 8
	for _, id := range []string{"MG-B1", "FG-B1"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			cmp, err := CompareWithRangeCheckEA(context.Background(), id, 0.05, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cmp.Runs == 0 {
				t.Fatal("no runs")
			}
			t.Logf("range-check EA: TPR=%.4f FPR=%.2e AUC=%.4f", cmp.RangeCheck.TPR(), cmp.RangeCheck.FPR(), cmp.RangeCheck.AUC())
			t.Logf("learnt        : TPR=%.4f FPR=%.2e AUC=%.4f", cmp.Learned.TPR(), cmp.Learned.FPR(), cmp.Learned.AUC())
			if cmp.Learned.AUC() <= cmp.RangeCheck.AUC() {
				t.Errorf("learnt predicate AUC %.4f does not beat range-check EA %.4f",
					cmp.Learned.AUC(), cmp.RangeCheck.AUC())
			}
		})
	}
}

// TestProfileGolden sanity-checks the golden profiling substrate.
func TestProfileGolden(t *testing.T) {
	opts := DefaultOptions()
	opts.TestCases = 2
	target, spec, err := SpecFor("MG-B1", opts)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := propane.ProfileGolden(target, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) == 0 {
		t.Fatal("no profiles")
	}
	for _, p := range profiles {
		if p.Samples == 0 {
			t.Errorf("%s never observed", p.Var)
		}
		if p.Min > p.Max {
			t.Errorf("%s range inverted: [%v, %v]", p.Var, p.Min, p.Max)
		}
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline; skipped in -short mode")
	}
	opts := DefaultOptions()
	opts.TestCases = 3
	opts.BitStride = 8
	opts.Folds = 5
	rep, err := RunMethodology(context.Background(), "MG-B1",
		[]SamplingConfig{{Kind: Oversampling, Percent: 300}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteReport(&sb, rep); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# Detector generation report — MG-B1",
		"## Step 3", "## Step 4", "Detector predicate", "Grid detail", "300(O)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if err := WriteReport(&sb, nil); err == nil {
		t.Error("nil report should fail")
	}
}
