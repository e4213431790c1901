package predicate

import (
	"sync"

	"edem/internal/propane"
)

// Detector is an error detection mechanism: a predicate installed as a
// runtime assertion at a program location (paper §VII-D: "a cross
// validation for each model had its predicate implemented as a runtime
// assertion in its corresponding code location"). It observes the
// instrumented variables at every activation of its location and raises
// an alarm whenever the predicate flags the state as failure-inducing.
//
// Concurrency: Visit, Triggered, AlarmIndices, VisitCount and Reset are
// safe for concurrent use — instrumented targets may activate the same
// location from several goroutines. Note that Visits still orders
// activations by arrival, so under concurrent visits the activation
// numbering (and therefore GuardActivations matching) depends on
// scheduling; single-goroutine targets keep deterministic numbering.
// Build detectors with NewDetector, which compiles the predicate; the
// exported configuration fields must not be mutated after the first
// Visit (reassigning Pred does not recompile). Direct reads of Visits/Alarms are safe only after the
// visiting goroutines have been joined.
type Detector struct {
	// Module and Location identify the code location the detector
	// guards; they must match the sampling location of the campaign the
	// predicate was learnt from.
	Module   string
	Location propane.Location
	// Pred is the detection predicate.
	Pred *Predicate
	// GuardActivations, when non-empty, restricts evaluation to these
	// 1-based activation indices — the activations whose states the
	// predicate was trained on. Other visits are counted but not
	// asserted. Do not mutate after the first Visit.
	GuardActivations []int

	// Visits counts location activations observed.
	Visits int
	// Alarms records the activation indices (1-based) at which the
	// predicate flagged the state.
	Alarms []int

	mu sync.Mutex
	// guardSet is the set form of GuardActivations, built on the first
	// guarded Visit so membership is O(1) instead of a linear scan.
	guardSet map[int]struct{}
	// prog is the compiled form of Pred that Visit evaluates. It is
	// bit-identical to the interpreted Pred.Eval (pinned by the
	// differential suite).
	prog *Program
}

var _ propane.Probe = (*Detector)(nil)

// NewDetector installs pred at the given location, compiled to a flat
// threshold program. It fails for a predicate Compile refuses.
func NewDetector(module string, loc propane.Location, pred *Predicate) (*Detector, error) {
	prog, err := Compile(pred)
	if err != nil {
		return nil, err
	}
	return &Detector{Module: module, Location: loc, Pred: pred, prog: prog}, nil
}

// Visit implements propane.Probe.
func (d *Detector) Visit(module string, loc propane.Location, vars []propane.VarRef) {
	if module != d.Module || loc != d.Location {
		return
	}
	d.mu.Lock()
	d.Visits++
	visit := d.Visits
	if len(d.GuardActivations) > 0 {
		if d.guardSet == nil {
			d.guardSet = make(map[int]struct{}, len(d.GuardActivations))
			for _, a := range d.GuardActivations {
				d.guardSet[a] = struct{}{}
			}
		}
		if _, guarded := d.guardSet[visit]; !guarded {
			d.mu.Unlock()
			return
		}
	}
	d.mu.Unlock()
	// Read and evaluate outside the lock: neither the VarRef reads nor
	// the predicate evaluation touches detector state.
	state := make([]float64, len(vars))
	for i, v := range vars {
		state[i] = v.Read()
	}
	if d.prog.Eval(state) {
		d.mu.Lock()
		d.Alarms = append(d.Alarms, visit)
		d.mu.Unlock()
	}
}

// Triggered reports whether the detector raised at least one alarm.
func (d *Detector) Triggered() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.Alarms) > 0
}

// AlarmIndices returns a copy of the alarm activation indices.
func (d *Detector) AlarmIndices() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.Alarms...)
}

// VisitCount returns the number of activations observed so far.
func (d *Detector) VisitCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Visits
}

// Reset clears the detector's counters for reuse across runs.
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Visits = 0
	d.Alarms = nil
	d.guardSet = nil
}
