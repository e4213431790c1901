package core

import (
	"context"
	"fmt"

	"edem/internal/mining/eval"
	"edem/internal/predicate"
	"edem/internal/propane"
	"edem/internal/telemetry"
)

// ValidationResult is the outcome of re-validating a deployed detector
// (paper §VII-D): the predicate is installed at the sampled location as
// a runtime assertion and the fault-injection experiments are repeated
// on a fresh workload to confirm the observed rates.
type ValidationResult struct {
	ID string
	// Counts cross-tabulates the detector's verdicts against the actual
	// failure labels of the fresh campaign.
	Counts eval.BinaryCounts
	// Runs is the number of usable (sampled) injected runs.
	Runs int
}

// ValidateDetector repeats the fault injection experiments for the
// dataset ID with the predicate conceptually installed at the sampling
// location, and scores its verdicts against the actual failure labels —
// the paper's §VII-D procedure ("all fault injection experiments were
// then repeated to ensure that the observed FPR and TPR values were
// commensurate with the rates presented"). Pass a different opts.Seed
// to measure generalisation to an unseen workload instead. The verdicts
// come from the compiled Program that Detector and the serving runtime
// run, so a predicate predicate.Compile refuses is refused here too.
func ValidateDetector(ctx context.Context, id string, pred *predicate.Predicate, opts Options) (*ValidationResult, error) {
	ctx, span := telemetry.StartSpan(ctx, "validate")
	defer span.End()
	prog, err := predicate.Compile(pred)
	if err != nil {
		return nil, err
	}
	camp, err := Campaign(ctx, id, opts)
	if err != nil {
		return nil, err
	}
	res := &ValidationResult{ID: id}
	res.Counts, res.Runs = scoreSampled(prog, camp.Records)
	if res.Runs == 0 {
		return nil, fmt.Errorf("core: validation campaign %s produced no sampled runs", id)
	}
	reg := telemetry.FromContext(ctx)
	reg.Counter("validate.runs").Add(int64(res.Runs))
	reg.Counter("validate.flagged").Add(int64(res.Counts.TP + res.Counts.FP))
	return res, nil
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
