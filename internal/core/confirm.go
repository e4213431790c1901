package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"edem/internal/mining/eval"
	"edem/internal/parallel"
	"edem/internal/predicate"
	"edem/internal/propane"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// Confirmation is the paper's §VII-D confirmation of a deployed
// detector: the predicate is installed at the sampling location as a
// runtime assertion and the fault-injection experiments are repeated.
// It reports the detector's rates over the repeated runs and, for every
// failing run, how soon the detector first alarms (paper §II: "EAs
// exhibiting high coverage and low latency serve to reduce error
// propagation").
type Confirmation struct {
	ID string
	// Counts cross-tabulates the detector's verdicts on every sampled
	// state against the run's failure label.
	Counts eval.BinaryCounts
	// Runs is the number of usable (sampled) injected runs.
	Runs int

	// Failures is the number of failure-inducing runs traced.
	Failures int
	// Detected counts failures the detector flagged at some visit of
	// the sampling location from the sample on.
	Detected int
	// Missed counts failures never flagged along the whole run.
	Missed int
	// MeanLatency is the mean number of sampling-location visits from
	// the sample to the first alarm, over detected failures (0 = the
	// sampled state itself was flagged).
	MeanLatency float64
	// MaxLatency is the worst observed detection distance.
	MaxLatency int
	// ImmediateRate is the fraction of detected failures flagged with
	// zero latency.
	ImmediateRate float64
}

// Confirm repeats the fault injection experiments for the dataset ID
// with the predicate installed at the sampling location (§VII-D: "all
// fault injection experiments were then repeated to ensure that the
// observed FPR and TPR values were commensurate with the rates
// presented"). It compiles the predicate once and runs the campaign
// once; it scores every sampled state, then re-executes every failing
// run through the campaign's own injector with the detector watching,
// to the first alarm. All fault models trace as they were injected.
//
// The verdicts come from the compiled Program that Detector and the
// serving runtime run, so a predicate predicate.Compile refuses is
// refused here, as is one whose variables are not the dataset's. A
// re-executed run whose record differs from the campaign's in any bit
// is an error, not a latency. Pass a different opts.Seed to measure
// generalisation to an unseen workload.
func Confirm(ctx context.Context, id string, pred *predicate.Predicate, opts Options) (*Confirmation, error) {
	ctx, span := telemetry.StartSpan(ctx, "confirm")
	defer span.End()
	prog, err := predicate.Compile(pred)
	if err != nil {
		return nil, err
	}
	target, spec, err := SpecFor(id, opts)
	if err != nil {
		return nil, err
	}
	mod, ok := propane.Module(target, spec.Module)
	if !ok {
		return nil, fmt.Errorf("%w: %q in %q", propane.ErrModuleNotFound, spec.Module, target.Name())
	}
	if err := checkVars(id, pred, mod); err != nil {
		return nil, err
	}
	camp, err := Campaign(ctx, id, opts)
	if err != nil {
		return nil, err
	}
	res := &Confirmation{ID: id}
	res.Counts, res.Runs = scoreSampled(prog, camp.Records)
	if res.Runs == 0 {
		return nil, fmt.Errorf("core: confirmation campaign %s produced no sampled runs", id)
	}
	failing, first, err := traceFailures(ctx, target, spec, mod, prog, camp.Records)
	if err != nil {
		return nil, err
	}

	res.Failures = len(failing)
	var latW stats.Welford
	immediate := 0
	for _, at := range first {
		if at < 0 {
			res.Missed++
			continue
		}
		res.Detected++
		latW.Add(float64(at))
		if at == 0 {
			immediate++
		}
		res.MaxLatency = max(res.MaxLatency, at)
	}
	res.MeanLatency = latW.Mean()
	if res.Detected > 0 {
		res.ImmediateRate = float64(immediate) / float64(res.Detected)
	}
	reg := telemetry.FromContext(ctx)
	reg.Counter("confirm.runs").Add(int64(res.Runs))
	reg.Counter("confirm.flagged").Add(int64(res.Counts.TP + res.Counts.FP))
	reg.Counter("confirm.traced").Add(int64(res.Failures))
	return res, nil
}

// checkVars refuses a predicate written for another module: its
// variables must be the module's, in order, optionally followed by the
// fault-model attributes propane.ToDataset appends.
func checkVars(id string, pred *predicate.Predicate, mod propane.ModuleInfo) error {
	n := min(len(pred.Vars), len(mod.Vars))
	for i := range n {
		if pred.Vars[i] != mod.Vars[i].Name {
			return fmt.Errorf("core: predicate %s reads %q at position %d, where %s samples %q",
				pred.Name, pred.Vars[i], i, id, mod.Vars[i].Name)
		}
	}
	if extra := pred.Vars[n:]; len(extra) > 0 && !slices.Equal(extra, propane.FaultAttrs[:]) {
		return fmt.Errorf("core: predicate %s has variables %q past the %d that %s samples",
			pred.Name, extra, len(mod.Vars), id)
	}
	return nil
}

// traceFailures re-executes every failing injected record, in parallel
// under a "trace" span, with prog watching from the sampled state on.
// It returns the failing records' indices and, for each, the index of
// the first alarm (-1 if none). records must be the campaign of spec in
// job order; any re-executed record that differs from its campaign
// record is an error.
func traceFailures(ctx context.Context, target propane.Target, spec propane.Spec, mod propane.ModuleInfo, prog *predicate.Program, records []propane.Record) (failing, first []int, err error) {
	ctx, span := telemetry.StartSpan(ctx, "trace")
	defer span.End()
	jobs := spec.Jobs(mod)
	if len(jobs) != len(records) {
		return nil, nil, fmt.Errorf("core: trace %s: %d records for %d jobs", spec.Dataset, len(records), len(jobs))
	}
	tcs := target.TestCases(spec.TestCases, spec.Seed)
	goldens := make([]any, len(tcs))
	for i := range records {
		if r := &records[i]; r.Failure && r.Injected {
			failing = append(failing, i)
			if tc := jobs[i].TC; goldens[tc] == nil {
				if goldens[tc], err = propane.RunGolden(target, tcs[tc]); err != nil {
					return nil, nil, fmt.Errorf("core: golden run %d: %w", tcs[tc].ID, err)
				}
			}
		}
	}
	first = make([]int, len(failing))
	err = parallel.ForEach(ctx, len(failing), spec.Workers, func(k int) error {
		i := failing[k]
		j := jobs[i]
		rec, at := propane.FirstAlarm(target, spec, mod, tcs[j.TC], goldens[j.TC], j, prog.Eval)
		if !sameRecord(&rec, &records[i]) {
			return fmt.Errorf("core: trace %s: re-executed run (test case %d, %s bit %d, time %d) differs from the campaign's record",
				spec.Dataset, rec.TestCase, rec.Var, rec.Bit, rec.InjectionTime)
		}
		first[k] = at
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: trace %s: %w", spec.Dataset, err)
	}
	return failing, first, nil
}

// sameRecord reports whether two records agree in every field, the
// sampled state bit for bit (so equal NaN states compare equal).
func sameRecord(a, b *propane.Record) bool {
	return a.TestCase == b.TestCase && a.Var == b.Var && a.Bit == b.Bit &&
		a.InjectionTime == b.InjectionTime && a.Injected == b.Injected &&
		a.Sampled == b.Sampled && a.Failure == b.Failure && a.Crashed == b.Crashed &&
		a.FlipErr == b.FlipErr &&
		slices.EqualFunc(a.State, b.State, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
}

// scoreSampled cross-tabulates the compiled program's verdicts on every
// sampled record against the record's failure label, and reports how
// many sampled records it scored.
func scoreSampled(prog *predicate.Program, records []propane.Record) (b eval.BinaryCounts, runs int) {
	for i := range records {
		r := &records[i]
		if !r.Sampled {
			continue
		}
		runs++
		flagged := prog.Eval(r.State)
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
	return b, runs
}
