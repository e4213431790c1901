// Package lifecycle closes the methodology's refinement loop: where
// the paper's Table IV refinement is one-shot (campaign → mine →
// export → serve), this package feeds serving-time evidence back into
// refinement so detectors are re-learnt when production traffic stops
// matching the traffic they were learnt from.
//
// It contributes three mechanisms, all consumed by the serving runtime
// (internal/serve) and surfaced as `edem lifecycle` verbs:
//
//   - a feedback journal: operator-labelled or golden-run-confirmed
//     alarm outcomes (true alarm, false alarm, missed failure) appended
//     to an internal/durable log, the campaign journal's fsynced
//     append-only JSONL with its one torn-tail policy, plus a
//     verdict-diff journal recording every sample on which a candidate
//     bundle disagreed with the live one — the raw material of the next
//     refinement run;
//   - drift detection: per-detector alarm rates and per-feature
//     magnitude distributions tracked in internal/telemetry's
//     power-of-two histograms, compared against a frozen baseline with
//     the deterministic telemetry.Distance comparator so a drift
//     verdict is reproducible from the same observations;
//   - canary accounting: disagreement and alarm-rate regression windows
//     for a candidate bundle under live traffic, with a threshold
//     verdict the serving runtime uses to roll a canary back
//     automatically.
//
// Role in the methodology: the loop edge from §VII-D deployment back
// to Step 1 — drifted or disagreeing detectors name the datasets to
// re-campaign and re-refine, and the journals record the evidence.
//
// Ownership and concurrency: a Monitor and a Tracker are safe for
// unrestricted concurrent use (atomic windows, mutex-guarded journal
// appends); Close a Monitor once, after its last writer is done.
// Records returned by readers are owned by the caller.
package lifecycle

import (
	"fmt"
	"math"
	"strconv"
)

// Source tells where a feedback label came from.
type Source string

const (
	// SourceOperator is a human operator labelling an alarm outcome.
	SourceOperator Source = "operator"
	// SourceGolden is an automated label confirmed by re-running the
	// sampled state against a golden (fault-free) reference.
	SourceGolden Source = "golden-run"
)

// ParseSource validates the wire spelling of a feedback source.
func ParseSource(s string) (Source, error) {
	switch Source(s) {
	case SourceOperator, SourceGolden:
		return Source(s), nil
	}
	return "", fmt.Errorf("lifecycle: unknown feedback source %q (want %q or %q)",
		s, SourceOperator, SourceGolden)
}

// Outcome is the ground-truth label attached to a served verdict.
type Outcome string

const (
	// OutcomeTrueAlarm confirms an alarm: the flagged state really
	// preceded a failure.
	OutcomeTrueAlarm Outcome = "true-alarm"
	// OutcomeFalseAlarm refutes an alarm: the flagged state was benign.
	OutcomeFalseAlarm Outcome = "false-alarm"
	// OutcomeMissedFailure records a failure the detector did not flag.
	OutcomeMissedFailure Outcome = "missed-failure"
	// OutcomeBenign confirms a non-alarm verdict as correct.
	OutcomeBenign Outcome = "benign"
)

// ParseOutcome validates the wire spelling of a feedback outcome.
func ParseOutcome(s string) (Outcome, error) {
	switch Outcome(s) {
	case OutcomeTrueAlarm, OutcomeFalseAlarm, OutcomeMissedFailure, OutcomeBenign:
		return Outcome(s), nil
	}
	return "", fmt.Errorf("lifecycle: unknown feedback outcome %q (want %q, %q, %q or %q)",
		s, OutcomeTrueAlarm, OutcomeFalseAlarm, OutcomeMissedFailure, OutcomeBenign)
}

// FeedbackRecord is one line of the feedback journal: a served verdict
// plus its ground-truth label. Sampled state travels as 16-digit hex
// IEEE-754 bit patterns (EncodeState), the campaign journal's exact
// NaN/±Inf-safe transport.
type FeedbackRecord struct {
	// UnixMS is the wall-clock label time in milliseconds (operational
	// metadata; nothing downstream depends on it).
	UnixMS int64 `json:"t_ms,omitempty"`
	// Detector is the bundle entry the verdict came from.
	Detector string `json:"detector"`
	// Generation is the bundle generation that served the verdict.
	Generation uint64 `json:"gen,omitempty"`
	// Alarm is the verdict being labelled.
	Alarm bool `json:"alarm"`
	// Outcome is the ground-truth label.
	Outcome Outcome `json:"outcome"`
	// Source tells where the label came from.
	Source Source `json:"source"`
	// State is the sampled state vector, hex-encoded (optional).
	State []string `json:"state,omitempty"`
	// Note is free-form operator context (optional).
	Note string `json:"note,omitempty"`
}

// DiffRecord is one line of the verdict-diff journal: the samples of
// one request on which the candidate bundle disagreed with the live
// one. Candidate verdicts are the negation of Live per entry, so only
// one side is stored.
type DiffRecord struct {
	// UnixMS is the wall-clock observation time in milliseconds.
	UnixMS int64 `json:"t_ms,omitempty"`
	// Detector is the bundle entry both sides evaluated.
	Detector string `json:"detector"`
	// LiveGen and CandGen identify the two bundle generations.
	LiveGen uint64 `json:"live_gen"`
	CandGen uint64 `json:"cand_gen"`
	// Served names which side's verdict the client saw: "live" or
	// "candidate" (the latter only while a canary routes traffic).
	Served string `json:"served"`
	// Index lists the 1-based disagreeing sample indices within the
	// request batch (matching EvalResponse.Alarms indexing).
	Index []int `json:"idx"`
	// Live holds the live bundle's verdict for each disagreeing sample.
	Live []bool `json:"live"`
	// State holds each disagreeing sample, hex-encoded.
	State [][]string `json:"state,omitempty"`
}

// EncodeState renders a state vector as 16-digit hex IEEE-754 bit
// patterns — the journal transport that round-trips NaN and ±Inf
// exactly (encoding/json rejects them as numbers).
func EncodeState(vals []float64) []string {
	if vals == nil {
		return nil
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return out
}
