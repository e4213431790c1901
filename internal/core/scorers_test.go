package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"edem/internal/bitflip"
	"edem/internal/mining/eval"
	"edem/internal/parallel"
	"edem/internal/predicate"
	"edem/internal/propane"
)

// oracleCounts re-scores a campaign's sampled records with the
// interpreted Predicate.Eval, the reference the compiled program is
// pinned against.
func oracleCounts(recs []propane.Record, p *predicate.Predicate) eval.BinaryCounts {
	var b eval.BinaryCounts
	for i := range recs {
		r := &recs[i]
		if !r.Sampled {
			continue
		}
		flagged := p.Eval(r.State)
		switch {
		case r.Failure && flagged:
			b.TP++
		case r.Failure:
			b.FN++
		case flagged:
			b.FP++
		default:
			b.TN++
		}
	}
	return b
}

// baselinePredicate fits the baseline C4.5 tree on the dataset's
// campaign and extracts its predicate.
func baselinePredicate(t *testing.T, ctx context.Context, id string, opts Options) (*predicate.Predicate, *propane.Campaign) {
	t.Helper()
	d, camp, err := BuildDataset(ctx, id, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DefaultLearner().FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predicate.FromTree(tr, eval.PositiveClass, id)
	if err != nil {
		t.Fatal(err)
	}
	return pred, camp
}

// TestOfflineScorersMatchInterpreter pins the offline scorers, which
// run the compiled program on engine campaigns, to counts measured when
// they ran the interpreter on propane.Run campaigns, and re-derives the
// confirmation and range-check counts with the interpreter over the
// same records. Every confirmation number, the latency ones included,
// comes from one Confirm and equals what the transient-only tracer
// that preceded it measured. Not skipped under -short, so the race job
// covers it.
func TestOfflineScorersMatchInterpreter(t *testing.T) {
	cases := []struct {
		id       string
		validate eval.BinaryCounts
		runs     int
		failures int
		detected int
		missed   int
		meanLat  uint64 // math.Float64bits
		maxLat   int
		immed    uint64 // math.Float64bits
		ea       eval.BinaryCounts
	}{
		{
			id:       "MG-B1",
			validate: eval.BinaryCounts{TP: 191, FN: 0, FP: 1, TN: 1128}, runs: 1320,
			failures: 191, detected: 191, missed: 0, meanLat: 0, maxLat: 0, immed: 0x3ff0000000000000,
			ea: eval.BinaryCounts{TP: 191, FN: 0, FP: 1129, TN: 0},
		},
		{
			id:       "KV-A2",
			validate: eval.BinaryCounts{TP: 793, FN: 1, FP: 11, TN: 527}, runs: 1332,
			failures: 794, detected: 794, missed: 0, meanLat: 0x3f6ef3bf843101e9, maxLat: 3, immed: 0x3feff5aec02944ff,
			ea: eval.BinaryCounts{TP: 497, FN: 297, FP: 523, TN: 15},
		},
	}
	opts := DefaultOptions()
	opts.TestCases = 3
	opts.BitStride = 8
	ctx := context.Background()
	for _, want := range cases {
		id := want.id
		t.Run(id, func(t *testing.T) {
			pred, camp := baselinePredicate(t, ctx, id, opts)

			c, err := Confirm(ctx, id, pred, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.Counts != want.validate || c.Runs != want.runs {
				t.Errorf("validate = %+v over %d runs, want %+v over %d", c.Counts, c.Runs, want.validate, want.runs)
			}
			if c.Failures != want.failures || c.Detected != want.detected || c.Missed != want.missed ||
				c.MaxLatency != want.maxLat || math.Float64bits(c.MeanLatency) != want.meanLat ||
				math.Float64bits(c.ImmediateRate) != want.immed {
				t.Errorf("latency = %d failures, %d detected, %d missed, mean %#x, max %d, immediate %#x; want %d, %d, %d, mean %#x, max %d, immediate %#x",
					c.Failures, c.Detected, c.Missed, math.Float64bits(c.MeanLatency), c.MaxLatency, math.Float64bits(c.ImmediateRate),
					want.failures, want.detected, want.missed, want.meanLat, want.maxLat, want.immed)
			}

			cmp, err := CompareWithRangeCheckEA(ctx, id, 0.05, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cmp.RangeCheck != want.ea || cmp.Learned != want.validate || cmp.Runs != want.runs {
				t.Errorf("range check = %+v, learned = %+v over %d runs; want %+v, %+v over %d",
					cmp.RangeCheck, cmp.Learned, cmp.Runs, want.ea, want.validate, want.runs)
			}

			if got := oracleCounts(camp.Records, pred); got != c.Counts {
				t.Errorf("interpreter over the campaign = %+v, compiled confirmation = %+v", got, c.Counts)
			}
			if got := oracleCounts(camp.Records, cmp.EA); got != cmp.RangeCheck {
				t.Errorf("interpreter range check = %+v, compiled = %+v", got, cmp.RangeCheck)
			}
		})
	}
}

// TestScorersRefuseUncompilable checks that the offline scorers refuse,
// before running any campaign, a predicate that NewDetector and bundle
// validation refuse: here an atom with no operator.
func TestScorersRefuseUncompilable(t *testing.T) {
	bad, err := predicate.Parse([]byte(`{"name":"MG-B1","vars":["x"],"clauses":[[{"var":"x","index":0,"threshold":1}]]}`))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.TestCases = 3
	opts.BitStride = 8
	const want = "unsupported operator"
	if _, err := Confirm(context.Background(), "MG-B1", bad, opts); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Confirm error = %v, want %q", err, want)
	}
}

// TestConfirmRefusesForeignPredicate: a predicate whose variables are
// not the dataset's, in order, is refused before any campaign runs,
// while the fault-model attributes propane.ToDataset appends are
// accepted after the module's variables.
func TestConfirmRefusesForeignPredicate(t *testing.T) {
	opts := DefaultOptions()
	opts.TestCases = 1
	opts.BitStride = 16
	target, spec, err := SpecFor("KV-A2", opts)
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := propane.Module(target, spec.Module)
	vars := make([]string, len(mod.Vars))
	for i, v := range mod.Vars {
		vars[i] = v.Name
	}
	always := []predicate.Clause{{{Var: vars[0], Index: 0, Op: predicate.LE, Threshold: math.Inf(1)}}}
	mg, _, err := SpecFor("MG-B1", opts)
	if err != nil {
		t.Fatal(err)
	}
	mgMod, _ := propane.Module(mg, "RGain")
	for _, tc := range []struct {
		name string
		vars []string
		want string // "" = accepted
	}{
		{"another module", []string{mgMod.Vars[0].Name}, "position 0"},
		{"renamed variable", append(slices.Clone(vars[:len(vars)-1]), "nope"), "position"},
		{"extra variable", append(slices.Clone(vars), "extra"), "past the"},
		{"partial fault attributes", append(slices.Clone(vars), "fault_model"), "past the"},
		{"module variables", vars, ""},
		{"fault attributes", append(slices.Clone(vars), propane.FaultAttrs[:]...), ""},
	} {
		pred := &predicate.Predicate{Name: "KV-A2", Vars: tc.vars, Clauses: always}
		_, err := Confirm(context.Background(), "KV-A2", pred, opts)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestConfirmFaultModels traces every fault model through the engine's
// own injector: the latency accounting adds up, every re-executed run
// equals its campaign record (traceFailures refuses otherwise), and the
// first traced state is the campaign's sample, so it alarms exactly
// when the sampled state is flagged.
func TestConfirmFaultModels(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen campaigns; skipped in -short mode")
	}
	ctx := context.Background()
	for _, id := range []string{"MG-B1", "KV-A2", "FG-A2", "7Z-B2"} {
		for _, f := range []bitflip.Fault{
			{},
			{Model: bitflip.Burst, Width: 2},
			{Model: bitflip.StuckAt},
			{Model: bitflip.Intermittent, Persist: 3},
		} {
			opts := DefaultOptions()
			opts.TestCases = 2
			opts.BitStride = 16
			opts.Fault = f
			name := id + "/" + f.Normalized().String()
			pred, camp := baselinePredicate(t, ctx, id, opts)
			c, err := Confirm(ctx, id, pred, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if c.Failures == 0 || c.Detected+c.Missed != c.Failures {
				t.Errorf("%s: %d detected + %d missed of %d failures", name, c.Detected, c.Missed, c.Failures)
			}

			target, spec, err := SpecFor(id, opts)
			if err != nil {
				t.Fatal(err)
			}
			mod, _ := propane.Module(target, spec.Module)
			prog, err := predicate.Compile(pred)
			if err != nil {
				t.Fatal(err)
			}
			failing, first, err := traceFailures(ctx, target, spec, mod, prog, camp.Records)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(failing) != c.Failures {
				t.Errorf("%s: traced %d failures, Confirm %d", name, len(failing), c.Failures)
			}
			immediate := 0
			for k, i := range failing {
				r := &camp.Records[i]
				if flagged := r.Sampled && prog.Eval(r.State); (first[k] == 0) != flagged {
					t.Errorf("%s: record %d: first alarm %d, sampled state flagged %v", name, i, first[k], flagged)
				}
				if first[k] == 0 {
					immediate++
				}
			}
			if float64(immediate) != c.Counts.TP {
				t.Errorf("%s: %d immediate alarms, %v flagged failing samples", name, immediate, c.Counts.TP)
			}
		}
	}
}

// TestConfirmRefusesDivergentRecord: a campaign record that the
// re-execution does not reproduce bit for bit fails the trace instead
// of yielding a latency.
func TestConfirmRefusesDivergentRecord(t *testing.T) {
	ctx := context.Background()
	opts := DefaultOptions()
	opts.TestCases = 2
	opts.BitStride = 16
	pred, camp := baselinePredicate(t, ctx, "MG-B1", opts)
	prog, err := predicate.Compile(pred)
	if err != nil {
		t.Fatal(err)
	}
	target, spec, err := SpecFor("MG-B1", opts)
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := propane.Module(target, spec.Module)
	i := slices.IndexFunc(camp.Records, func(r propane.Record) bool { return r.Failure && r.Sampled })
	if i < 0 {
		t.Fatal("no failing sampled record")
	}
	for name, mutate := range map[string]func(*propane.Record){
		"state bit": func(r *propane.Record) {
			r.State = slices.Clone(r.State)
			r.State[0] = math.Float64frombits(math.Float64bits(r.State[0]) ^ 1)
		},
		"crashed": func(r *propane.Record) { r.Crashed = !r.Crashed },
	} {
		recs := slices.Clone(camp.Records)
		mutate(&recs[i])
		if _, _, err := traceFailures(ctx, target, spec, mod, prog, recs); err == nil || !strings.Contains(err.Error(), "differs") {
			t.Errorf("%s: trace error = %v, want a record mismatch", name, err)
		}
	}
}

// TestConfirmWorkerCountInvariant pins the scheduler contract for the
// trace fan-out: one worker and eight produce identical confirmations,
// because each traced run writes its own slot and the latency
// aggregation is serial. A cancelled context stops the fan-out with an
// error.
func TestConfirmWorkerCountInvariant(t *testing.T) {
	parallel.SetBudget(8)
	defer parallel.SetBudget(0)
	ctx := context.Background()
	opts := DefaultOptions()
	opts.TestCases = 2
	opts.BitStride = 16
	pred, camp := baselinePredicate(t, ctx, "KV-A2", opts)
	opts.Workers = 1
	serial, err := Confirm(ctx, "KV-A2", pred, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	par, err := Confirm(ctx, "KV-A2", pred, opts)
	if err != nil {
		t.Fatal(err)
	}
	if *serial != *par {
		t.Errorf("Workers=1 %+v != Workers=8 %+v", *serial, *par)
	}

	prog, err := predicate.Compile(pred)
	if err != nil {
		t.Fatal(err)
	}
	target, spec, err := SpecFor("KV-A2", opts)
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := propane.Module(target, spec.Module)
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := traceFailures(cctx, target, spec, mod, prog, camp.Records); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled trace error = %v, want context.Canceled", err)
	}
}
