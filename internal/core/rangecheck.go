package core

import (
	"context"
	"fmt"

	"edem/internal/mining/eval"
	"edem/internal/predicate"
	"edem/internal/propane"
)

// EAComparison contrasts the classical golden-range executable
// assertion (the specification/experience-derived detector of paper
// §II-A) with the methodology's learnt predicate on the same injected
// runs. This is the paper's core claim made measurable: detectors
// "obtained by design" versus the state of practice.
type EAComparison struct {
	ID string
	// RangeCheck is the golden-range EA's confusion counts.
	RangeCheck eval.BinaryCounts
	// Learned is the learnt predicate's confusion counts on the same
	// records (§VII-D style repetition of the experiments).
	Learned eval.BinaryCounts
	// Runs is the number of evaluated injected runs.
	Runs int
	// EA is the range-check predicate, for inspection.
	EA *predicate.Predicate
}

// CompareWithRangeCheckEA profiles the golden runs of the dataset's
// campaign, builds a range-check executable assertion with the given
// slack fraction, learns the methodology's predicate from the same
// campaign, and scores both, compiled, against the failure labels.
func CompareWithRangeCheckEA(ctx context.Context, id string, slack float64, opts Options) (*EAComparison, error) {
	target, spec, err := SpecFor(id, opts)
	if err != nil {
		return nil, err
	}
	profiles, err := propane.ProfileGolden(target, spec)
	if err != nil {
		return nil, fmt.Errorf("core: golden profile %s: %w", id, err)
	}
	ea, err := predicate.RangeCheck(profiles, slack, id+"-rangecheck")
	if err != nil {
		return nil, fmt.Errorf("core: range check %s: %w", id, err)
	}
	eaProg, err := predicate.Compile(ea)
	if err != nil {
		return nil, err
	}

	d, camp, err := BuildDataset(ctx, id, opts)
	if err != nil {
		return nil, err
	}
	t, err := DefaultLearner().FitTree(d)
	if err != nil {
		return nil, fmt.Errorf("core: fit %s: %w", id, err)
	}
	learned, err := predicate.FromTree(t, eval.PositiveClass, id)
	if err != nil {
		return nil, err
	}
	learnedProg, err := predicate.Compile(learned)
	if err != nil {
		return nil, err
	}

	res := &EAComparison{ID: id, EA: ea}
	res.RangeCheck, res.Runs = scoreSampled(eaProg, camp.Records)
	res.Learned, _ = scoreSampled(learnedProg, camp.Records)
	if res.Runs == 0 {
		return nil, fmt.Errorf("core: campaign %s produced no sampled runs", id)
	}
	return res, nil
}
