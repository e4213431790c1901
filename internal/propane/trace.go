package propane

import (
	"fmt"
)

// TraceEntry is one sampled state in a propagation trace.
type TraceEntry struct {
	// Activation is the 1-based activation index of the traced location.
	Activation int
	// State holds the module variables at that activation.
	State []float64
}

// Trace is the full post-injection history of a module's state — the
// propagation analysis PROPANE is named for. Where a campaign samples
// one state per injected run, a trace samples every activation of the
// location from the injection onward, which is what detection-latency
// measurement needs.
type Trace struct {
	Module        string
	Location      Location
	Var           string
	Bit           int
	InjectionTime int
	// Injected reports whether the injection activation was reached.
	Injected bool
	// Entries holds the state at every activation of the traced
	// location from the injection onward (the injection activation
	// itself included when the locations coincide).
	Entries []TraceEntry
	// Failure and Crashed classify the run outcome.
	Failure bool
	Crashed bool
}

// TraceSpec configures one traced injection run.
type TraceSpec struct {
	Module        string
	InjectAt      Location
	TraceAt       Location
	Var           string
	Bit           int
	InjectionTime int
}

// RunTrace executes one injected run recording the module state at
// every activation of the traced location from the injection onward.
// The golden output must come from a prior fault-free run of the same
// test case. A bit flip the variable refuses (VarRef.FlipBit's error)
// fails the trace instead of tracing an uninjected run.
func RunTrace(target Target, tc TestCase, golden any, spec TraceSpec) (*Trace, error) {
	if spec.InjectionTime < 1 {
		return nil, fmt.Errorf("propane: trace injection time %d must be >= 1", spec.InjectionTime)
	}
	probe := &traceProbe{
		module:   spec.Module,
		injectAt: spec.InjectAt,
		traceAt:  spec.TraceAt,
		injTime:  spec.InjectionTime,
		varName:  spec.Var,
		bit:      spec.Bit,
	}
	out, err := runSafely(target, tc, probe)
	if probe.flipErr != nil {
		return nil, fmt.Errorf("propane: trace flip %s bit %d: %w", spec.Var, spec.Bit, probe.flipErr)
	}
	tr := &Trace{
		Module:        spec.Module,
		Location:      spec.TraceAt,
		Var:           spec.Var,
		Bit:           spec.Bit,
		InjectionTime: spec.InjectionTime,
		Injected:      probe.injected,
		Entries:       probe.entries,
	}
	switch {
	case err != nil:
		tr.Crashed = true
		tr.Failure = probe.injected
	case probe.injected:
		tr.Failure = target.Failed(tc, golden, out)
	}
	return tr, nil
}

// traceProbe injects one bit flip and then records the state at every
// visit of the traced location.
type traceProbe struct {
	module   string
	injectAt Location
	traceAt  Location
	injTime  int
	varName  string
	bit      int

	injections int
	traces     int
	injected   bool
	flipErr    error
	entries    []TraceEntry
}

var _ Probe = (*traceProbe)(nil)

func (p *traceProbe) Visit(module string, loc Location, vars []VarRef) {
	if module != p.module {
		return
	}
	inject := false
	if loc == p.injectAt {
		p.injections++
		if !p.injected && p.injections == p.injTime {
			inject = true
		}
	}
	if inject {
		for _, v := range vars {
			if v.Name == p.varName {
				p.flipErr = v.FlipBit(p.bit)
				break
			}
		}
		p.injected = true
	}
	if loc == p.traceAt {
		p.traces++
		if p.injected {
			p.record(vars, p.traces)
		}
	}
}

func (p *traceProbe) record(vars []VarRef, activation int) {
	state := make([]float64, len(vars))
	for i, v := range vars {
		state[i] = v.Read()
	}
	p.entries = append(p.entries, TraceEntry{Activation: activation, State: state})
}
