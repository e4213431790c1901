package core

import (
	"context"
	"strings"
	"testing"

	"edem/internal/bitflip"
	"edem/internal/mining/eval"
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

// TestOfflineScorersMatchInterpreter pins the offline scorers, which
// run the compiled program on engine campaigns, to counts measured when
// they ran the interpreter on propane.Run campaigns, and re-derives the
// validation and range-check counts with the interpreter over the same
// records. Not skipped under -short, so the race job covers it.
func TestOfflineScorersMatchInterpreter(t *testing.T) {
	cases := []struct {
		id       string
		validate eval.BinaryCounts
		runs     int
		failures int
		detected int
		maxLat   int
		ea       eval.BinaryCounts
	}{
		{
			id:       "MG-B1",
			validate: eval.BinaryCounts{TP: 191, FN: 0, FP: 1, TN: 1128}, runs: 1320,
			failures: 191, detected: 191, maxLat: 0,
			ea: eval.BinaryCounts{TP: 191, FN: 0, FP: 1129, TN: 0},
		},
		{
			id:       "KV-A2",
			validate: eval.BinaryCounts{TP: 793, FN: 1, FP: 11, TN: 527}, runs: 1332,
			failures: 794, detected: 794, maxLat: 3,
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

			val, err := ValidateDetector(ctx, id, pred, opts)
			if err != nil {
				t.Fatal(err)
			}
			if val.Counts != want.validate || val.Runs != want.runs {
				t.Errorf("validate = %+v over %d runs, want %+v over %d", val.Counts, val.Runs, want.validate, want.runs)
			}

			lat, err := MeasureLatency(ctx, id, pred, opts)
			if err != nil {
				t.Fatal(err)
			}
			if lat.Failures != want.failures || lat.Detected != want.detected || lat.MaxLatency != want.maxLat {
				t.Errorf("latency = %d failures, %d detected, max %d; want %d, %d, max %d",
					lat.Failures, lat.Detected, lat.MaxLatency, want.failures, want.detected, want.maxLat)
			}

			cmp, err := CompareWithRangeCheckEA(ctx, id, 0.05, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cmp.RangeCheck != want.ea || cmp.Learned != want.validate || cmp.Runs != want.runs {
				t.Errorf("range check = %+v, learned = %+v over %d runs; want %+v, %+v over %d",
					cmp.RangeCheck, cmp.Learned, cmp.Runs, want.ea, want.validate, want.runs)
			}

			if got := oracleCounts(camp.Records, pred); got != val.Counts {
				t.Errorf("interpreter over the campaign = %+v, compiled validate = %+v", got, val.Counts)
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
	ctx := context.Background()
	const want = "unsupported operator"
	if _, err := ValidateDetector(ctx, "MG-B1", bad, opts); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ValidateDetector error = %v, want %q", err, want)
	}
	if _, err := MeasureLatency(ctx, "MG-B1", bad, opts); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("MeasureLatency error = %v, want %q", err, want)
	}
}

// TestMeasureLatencyRefusesNonTransient: trace mode injects a transient
// single-bit flip, so every other fault model is refused with an
// explicit error rather than traced as if it were transient.
func TestMeasureLatencyRefusesNonTransient(t *testing.T) {
	pred := &predicate.Predicate{Name: "MG-B1", Vars: []string{"x"}}
	for _, f := range []bitflip.Fault{
		{Model: bitflip.Burst, Width: 2},
		{Model: bitflip.StuckAt},
		{Model: bitflip.Intermittent, Persist: 3},
	} {
		opts := DefaultOptions()
		opts.TestCases = 3
		opts.BitStride = 8
		opts.Fault = f
		_, err := MeasureLatency(context.Background(), "MG-B1", pred, opts)
		if err == nil || !strings.Contains(err.Error(), "transient") || !strings.Contains(err.Error(), f.String()) {
			t.Errorf("%s: MeasureLatency error = %v, want a transient-only refusal naming the model", f, err)
		}
	}
}
