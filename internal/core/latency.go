package core

import (
	"context"
	"fmt"

	"edem/internal/predicate"
	"edem/internal/propane"
	"edem/internal/stats"
)

// LatencyResult summarises detection latency for a deployed detector:
// for every failure-inducing injected run, how many activations of the
// detector's location pass between the injection and the first alarm.
// Low latency contains error propagation (paper §II: "EAs exhibiting
// high coverage and low latency serve to reduce error propagation").
type LatencyResult struct {
	ID string
	// Failures is the number of failure-inducing runs traced.
	Failures int
	// Detected counts failures the detector flagged at some activation.
	Detected int
	// Missed counts failures never flagged along the whole trace.
	Missed int
	// MeanLatency is the mean activation distance from injection to the
	// first alarm, over detected failures (0 = flagged at the very
	// activation the fault appeared).
	MeanLatency float64
	// MaxLatency is the worst observed detection distance.
	MaxLatency int
	// ImmediateRate is the fraction of detected failures flagged with
	// zero latency.
	ImmediateRate float64
}

// MeasureLatency traces every failure-inducing run of a campaign with
// the predicate installed at the sampling location, recording how long
// each error propagates before the detector first flags module state.
// The campaign itself provides the set of failing (test case, variable,
// bit, time) coordinates; each is then re-executed in trace mode.
func MeasureLatency(ctx context.Context, id string, pred *predicate.Predicate, opts Options) (*LatencyResult, error) {
	prog, err := predicate.Compile(pred)
	if err != nil {
		return nil, err
	}
	target, spec, err := SpecFor(id, opts)
	if err != nil {
		return nil, err
	}
	camp, err := Campaign(ctx, id, opts)
	if err != nil {
		return nil, err
	}

	tcs := target.TestCases(spec.TestCases, spec.Seed)
	goldens := make(map[int]any, len(tcs))
	tcByID := make(map[int]propane.TestCase, len(tcs))
	for _, tc := range tcs {
		out, err := propane.RunGolden(target, tc)
		if err != nil {
			return nil, fmt.Errorf("core: golden run %d: %w", tc.ID, err)
		}
		goldens[tc.ID] = out
		tcByID[tc.ID] = tc
	}

	res := &LatencyResult{ID: id}
	var latW stats.Welford
	immediate := 0
	for i := range camp.Records {
		r := &camp.Records[i]
		if !r.Failure || !r.Injected {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: latency cancelled: %w", err)
		}
		res.Failures++
		tr, err := propane.RunTrace(target, tcByID[r.TestCase], goldens[r.TestCase], propane.TraceSpec{
			Module:        spec.Module,
			InjectAt:      spec.InjectAt,
			TraceAt:       spec.SampleAt,
			Var:           r.Var,
			Bit:           r.Bit,
			InjectionTime: r.InjectionTime,
		})
		if err != nil {
			return nil, fmt.Errorf("core: trace %s bit %d: %w", r.Var, r.Bit, err)
		}
		detectedAt := -1
		for ei, e := range tr.Entries {
			if prog.Eval(e.State) {
				detectedAt = ei
				break
			}
		}
		if detectedAt < 0 {
			res.Missed++
			continue
		}
		res.Detected++
		latW.Add(float64(detectedAt))
		if detectedAt == 0 {
			immediate++
		}
		if detectedAt > res.MaxLatency {
			res.MaxLatency = detectedAt
		}
	}
	res.MeanLatency = latW.Mean()
	if res.Detected > 0 {
		res.ImmediateRate = float64(immediate) / float64(res.Detected)
	}
	return res, nil
}
