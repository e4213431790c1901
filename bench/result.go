package main

import (
	"fmt"
	"time"

	"edem/bench/internal/report"
)

// result is a workload's outcome under construction.
type result struct{ *report.Workload }

func newWorkload() result {
	return result{&report.Workload{Correct: true, Metrics: make(map[string]*report.Metric)}}
}

const (
	// minReps is the fewest operations any workload measures, so each
	// median rests on at least three values whatever --seconds says.
	minReps = 3
	// setupReps is the fewest set-ups each workload times for setup_s,
	// and setupsPerOp how many it times before each measured operation.
	// A set-up takes milliseconds, and a burst of them all sees the
	// machine in one moment's state: spread through the run, they give
	// a median that repeats from run to run.
	setupReps   = 31
	setupsPerOp = 4
	// settle is the idle pause before each set-up. Started back to back,
	// millisecond set-ups run fast or slow by turns from one burst to the
	// next; after a short pause each starts from the same idle state,
	// and they spread less (bench/README.md).
	settle = 20 * time.Millisecond
)

// setups collects a workload's set-up times. once performs one set-up,
// undoes it, and returns how long it took.
type setups struct {
	once  func() (time.Duration, error)
	times []float64 // seconds
}

// take times n set-ups, each after the settle pause.
func (s *setups) take(n int) error {
	for i := 0; i < n; i++ {
		time.Sleep(settle)
		d, err := s.once()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.times = append(s.times, d.Seconds())
	}
	return nil
}

// finish tops the set-ups up to setupReps.
func (s *setups) finish() error { return s.take(setupReps - len(s.times)) }

// maxErrors caps the error messages a result keeps; the count of
// failures is exact regardless.
const maxErrors = 10

// fail records one failed operation.
func (r result) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// set records a metric from its reps. Units are filled in from
// BENCHMARK.json once the workload is done.
func (r result) set(name string, reps []float64) {
	if len(reps) > 0 {
		r.Metrics[name] = report.NewMetric("", reps)
	}
}

// more reports whether a rep loop should run another operation: until
// --seconds have passed and at least minReps operations succeeded, or
// only one operation in a traced run, whose untraced rep is a reference
// for the trace overhead. It gives up after minReps failures.
func (r result) more(ok int, begin time.Time, b *bench) bool {
	if r.Failed >= minReps {
		return false
	}
	if b.trace {
		return ok < 1
	}
	return ok < minReps || time.Since(begin) < b.seconds
}
