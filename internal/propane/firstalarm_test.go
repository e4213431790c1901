package propane

import (
	"reflect"
	"slices"
	"testing"
)

// watchJob re-executes job j of spec under FirstAlarm with an alarm
// that keeps every state it is shown and fires at index fireAt (never
// when fireAt < 0). The record must equal RunJob's: the detector only
// watches, the injector is the campaign's.
func watchJob(t *testing.T, target Target, spec Spec, j Job, fireAt int) (Record, int, [][]float64) {
	t.Helper()
	mod, _ := Module(target, spec.Module)
	tc := target.TestCases(j.TC+1, spec.Seed)[j.TC]
	golden, err := RunGolden(target, tc)
	if err != nil {
		t.Fatal(err)
	}
	var seen [][]float64
	rec, first := FirstAlarm(target, spec, mod, tc, golden, j, func(s []float64) bool {
		seen = append(seen, slices.Clone(s))
		return len(seen)-1 == fireAt
	})
	if want := RunJob(target, spec, mod, tc, golden, j); !reflect.DeepEqual(rec, want) {
		t.Errorf("FirstAlarm record %+v, RunJob record %+v", rec, want)
	}
	return rec, first, seen
}

func TestFirstAlarmSeesPostInjectionStates(t *testing.T) {
	target := &toyTarget{Ticks: 6}
	j := Job{Var: 1, Bit: 10, Time: 3} // gate
	rec, first, seen := watchJob(t, target, toySpec(), j, -1)
	if !rec.Injected || !rec.Failure {
		t.Fatalf("corrupted gate must be injected and fail: %+v", rec)
	}
	// Exit visits 3..6 are post-injection: 4 states, the first of them
	// the campaign's sample.
	if len(seen) != 4 || first != -1 {
		t.Fatalf("states = %d, first alarm %d; want 4, -1", len(seen), first)
	}
	if !slices.Equal(seen[0], rec.State) {
		t.Fatalf("first state %v, sampled %v", seen[0], rec.State)
	}
	// The corrupted gate (7 ^ 1<<10) is visible in every state.
	for _, s := range seen {
		if s[1] != float64(7^1<<10) {
			t.Fatalf("gate = %v, want %v", s[1], float64(7^1<<10))
		}
	}

	// Evaluation stops at the first alarm.
	if _, first, seen := watchJob(t, target, toySpec(), j, 2); first != 2 || len(seen) != 3 {
		t.Fatalf("alarm at 2: first %d after %d states", first, len(seen))
	}
}

func TestFirstAlarmSameLocation(t *testing.T) {
	spec := toySpec()
	spec.SampleAt = Entry
	rec, _, seen := watchJob(t, &toyTarget{Ticks: 5}, spec, Job{Var: 0, Bit: 62, Time: 2}, -1)
	// Entry visits 2..5 post-injection, the injection visit first.
	if len(seen) != 4 || !slices.Equal(seen[0], rec.State) {
		t.Fatalf("states = %v, sampled %v", seen, rec.State)
	}
}

func TestFirstAlarmUnreachedInjection(t *testing.T) {
	rec, first, seen := watchJob(t, &toyTarget{Ticks: 3}, toySpec(), Job{Var: 0, Bit: 0, Time: 99}, 0)
	if rec.Injected || rec.Failure || len(seen) != 0 || first != -1 {
		t.Fatalf("unreached injection: %+v, first %d, %d states", rec, first, len(seen))
	}
}

func TestFirstAlarmCrash(t *testing.T) {
	spec := toySpec()
	spec.SampleAt = Entry
	// Bit 61 is a clear exponent bit of small accumulator values:
	// flipping it makes acc astronomically large, tripping the toy
	// target's panic guard.
	rec, first, seen := watchJob(t, &toyTarget{Ticks: 6, CrashOn: 1e6}, spec, Job{Var: 0, Bit: 61, Time: 2}, 0)
	if !rec.Crashed || !rec.Failure {
		t.Fatalf("crash not classified: %+v", rec)
	}
	// The injection visit's state was evaluated before the panic fired.
	if first != 0 || len(seen) != 1 || seen[0][0] < 1e6 {
		t.Fatalf("first alarm %d over states %v, want 0 over the corrupted accumulator", first, seen)
	}
}

// TestFirstAlarmRefusedFlip: a flip the variable refuses (a bit outside
// float64) is the campaign's FlipErr record, traced as such rather
// than as a silently benign run.
func TestFirstAlarmRefusedFlip(t *testing.T) {
	spec := Spec{Dataset: "NR-A2", Module: "M", InjectAt: Entry, SampleAt: Exit, InjectionTimes: []int{1}, TestCases: 1, Seed: 1}
	rec, first, seen := watchJob(t, faultlessTarget{}, spec, Job{Var: 0, Bit: 64, Time: 1}, -1)
	if !rec.FlipErr || !rec.Injected || rec.Failure {
		t.Fatalf("refused flip: %+v", rec)
	}
	if first != -1 || len(seen) != 1 || seen[0][0] != 2 {
		t.Fatalf("first alarm %d over states %v, want -1 over the uncorrupted [2]", first, seen)
	}
}
