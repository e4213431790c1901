package propane

import (
	"strings"
	"testing"
)

func TestRunTraceRecordsPostInjectionStates(t *testing.T) {
	target := &toyTarget{Ticks: 6}
	tc := target.TestCases(1, 1)[0]
	golden, err := target.Run(tc, NopProbe{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTrace(target, tc, golden, TraceSpec{
		Module:        "M",
		InjectAt:      Entry,
		TraceAt:       Exit,
		Var:           "gate",
		Bit:           10,
		InjectionTime: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Injected {
		t.Fatal("injection not reached")
	}
	// Exit visits 3..6 are post-injection: 4 entries.
	if len(tr.Entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(tr.Entries))
	}
	if tr.Entries[0].Activation != 3 || tr.Entries[3].Activation != 6 {
		t.Fatalf("activations = %d..%d", tr.Entries[0].Activation, tr.Entries[3].Activation)
	}
	// The corrupted gate (7 ^ 1<<10) is visible in every entry.
	want := float64(7 ^ 1<<10)
	for _, e := range tr.Entries {
		if e.State[1] != want {
			t.Fatalf("gate in trace = %v, want %v", e.State[1], want)
		}
	}
	if !tr.Failure {
		t.Fatal("corrupted gate must fail")
	}
}

func TestRunTraceSameLocation(t *testing.T) {
	target := &toyTarget{Ticks: 5}
	tc := target.TestCases(1, 1)[0]
	golden, err := target.Run(tc, NopProbe{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTrace(target, tc, golden, TraceSpec{
		Module:   "M",
		InjectAt: Entry,
		TraceAt:  Entry,
		Var:      "acc", Bit: 62, InjectionTime: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Entry visits 2..5 post-injection, including the injection visit.
	if len(tr.Entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(tr.Entries))
	}
	if tr.Entries[0].Activation != 2 {
		t.Fatalf("first activation = %d, want 2 (the injection visit)", tr.Entries[0].Activation)
	}
}

func TestRunTraceUnreachedInjection(t *testing.T) {
	target := &toyTarget{Ticks: 3}
	tc := target.TestCases(1, 1)[0]
	golden, _ := target.Run(tc, NopProbe{})
	tr, err := RunTrace(target, tc, golden, TraceSpec{
		Module: "M", InjectAt: Entry, TraceAt: Exit,
		Var: "acc", Bit: 0, InjectionTime: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Injected || len(tr.Entries) != 0 || tr.Failure {
		t.Fatalf("unreached injection: %+v", tr)
	}
}

func TestRunTraceBadSpec(t *testing.T) {
	target := &toyTarget{}
	tc := target.TestCases(1, 1)[0]
	if _, err := RunTrace(target, tc, nil, TraceSpec{InjectionTime: 0}); err == nil {
		t.Fatal("zero injection time should fail")
	}
}

func TestRunTraceCrash(t *testing.T) {
	target := &toyTarget{Ticks: 6, CrashOn: 1e6}
	tc := target.TestCases(1, 1)[0]
	golden, err := target.Run(tc, NopProbe{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTrace(target, tc, golden, TraceSpec{
		Module: "M", InjectAt: Entry, TraceAt: Entry,
		// Bit 61 is a clear exponent bit of small accumulator values:
		// flipping it makes acc astronomically large, tripping the
		// toy target's panic guard.
		Var: "acc", Bit: 61, InjectionTime: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Crashed || !tr.Failure {
		t.Fatalf("crash not classified: %+v", tr)
	}
	// The injection visit's state was recorded before the panic fired.
	if len(tr.Entries) != 1 {
		t.Fatalf("entries = %d, want the single pre-crash state", len(tr.Entries))
	}
	if tr.Entries[0].State[0] < 1e6 {
		t.Fatalf("recorded state should show the corrupted accumulator: %v", tr.Entries[0].State)
	}
}

// TestRunTraceFlipError: a flip the variable refuses (a bit outside
// float64) fails the trace with the variable and bit named, instead of
// tracing a run that was never injected.
func TestRunTraceFlipError(t *testing.T) {
	target := faultlessTarget{}
	tc := target.TestCases(1, 1)[0]
	golden, err := target.Run(tc, NopProbe{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTrace(target, tc, golden, TraceSpec{
		Module:        "M",
		InjectAt:      Entry,
		TraceAt:       Exit,
		Var:           "x",
		Bit:           64,
		InjectionTime: 1,
	})
	if err == nil {
		t.Fatalf("out-of-range flip traced without error: %+v", tr)
	}
	if !strings.Contains(err.Error(), "x bit 64") {
		t.Fatalf("error %q does not name the variable and bit", err)
	}
}
