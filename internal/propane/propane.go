// Package propane implements the fault-injection environment the paper
// builds on (PROPANE, Hiller et al. [12]): golden-run capture, single
// transient bit-flip injection into instrumented variables at configured
// activation times, module-state sampling at entry/exit locations, a
// textual log format, and parallel campaign execution.
//
// A target system exposes instrumented modules. During a run the target
// calls Probe.Visit at every instrumentation point (module entry or exit)
// passing live references to its variables; the engine uses those
// references to inject exactly one bit flip per run and to record the
// sampled state that becomes one row of a fault-injection dataset.
//
// Role in the methodology: Step 1 (fault injection analysis) and, via
// ToDataset, the input to Step 2. Ownership/concurrency: Target
// implementations must be stateless values whose Run builds all mutable
// state per call, because campaign workers invoke Run concurrently on
// one shared Target; a Probe instance, by contrast, belongs to exactly
// one run. Run (and the campaign engine wrapping it) parallelises over
// the shared internal/parallel budget with per-cell determinism — the
// resulting Campaign is scheduling-invariant and owned by the caller.
package propane

import (
	"errors"
	"fmt"
	"math"

	"edem/internal/bitflip"
)

// Location is an instrumentation point within a module.
type Location int

// Instrumented locations: the entry point and exit point of a module
// (paper §VI-D: "the entry-point and exit-point of each module were
// instrumented locations").
const (
	Entry Location = iota + 1
	Exit
)

// String returns the paper's spelling of the location.
func (l Location) String() string {
	switch l {
	case Entry:
		return "Entry"
	case Exit:
		return "Exit"
	default:
		return fmt.Sprintf("Location(%d)", int(l))
	}
}

// VarRef is a live reference to one instrumented variable, provided by
// the target at each instrumentation visit. Read returns a numeric view
// of the current value (used for state sampling). Bits and SetBits
// expose the raw machine representation, zero-extended to 64 bits:
// every fault model corrupts through them, XORing its mask into the
// bits at injection and re-asserting stuck bits later. FlipBit toggles
// one bit the same way, for probes written outside the engine.
//
// A VarRef holds one typed pointer, not closures: building one with an
// adapter (Float64Ref, Int64Ref, ...) allocates nothing, and neither
// does any of its methods. The adapters are the only way to give a
// VarRef its variable. A zero VarRef refers to nothing: it reads 0, its
// Bits are 0, SetBits does nothing and FlipBit returns an error, so
// injecting into it is a surfaced flip error under every fault model.
type VarRef struct {
	Name string
	Kind bitflip.Kind
	ref  cell
}

// cell is the variable behind a VarRef, one named pointer type per
// machine representation. Converting a pointer to one of them and
// storing it in the interface allocates nothing.
type cell interface {
	read() float64
	bits() uint64
	setBits(bits uint64)
}

type (
	f64  float64
	i64  int64
	i32  int32
	u64  uint64
	flag bool
)

func (p *f64) read() float64       { return float64(*p) }
func (p *f64) bits() uint64        { return math.Float64bits(float64(*p)) }
func (p *f64) setBits(bits uint64) { *p = f64(math.Float64frombits(bits)) }

func (p *i64) read() float64       { return float64(*p) }
func (p *i64) bits() uint64        { return uint64(*p) }
func (p *i64) setBits(bits uint64) { *p = i64(bits) }

func (p *i32) read() float64       { return float64(*p) }
func (p *i32) bits() uint64        { return uint64(uint32(*p)) }
func (p *i32) setBits(bits uint64) { *p = i32(uint32(bits)) }

func (p *u64) read() float64       { return float64(*p) }
func (p *u64) bits() uint64        { return uint64(*p) }
func (p *u64) setBits(bits uint64) { *p = u64(bits) }

func (p *flag) read() float64 { return float64(p.bits()) }
func (p *flag) bits() uint64 {
	if *p {
		return 1
	}
	return 0
}
func (p *flag) setBits(bits uint64) { *p = bits&1 == 1 }

// errNoVariable is FlipBit's error on a VarRef that refers to no
// variable.
var errNoVariable = errors.New("propane: VarRef refers to no variable")

// Read returns the variable's current value as a float64 (false = 0,
// true = 1).
func (v VarRef) Read() float64 {
	if v.ref == nil {
		return 0
	}
	return v.ref.read()
}

// Bits returns the variable's machine representation, zero-extended to
// 64 bits.
func (v VarRef) Bits() uint64 {
	if v.ref == nil {
		return 0
	}
	return v.ref.bits()
}

// SetBits overwrites the variable with a machine representation; bits
// above the kind's width are ignored.
func (v VarRef) SetBits(bits uint64) {
	if v.ref != nil {
		v.ref.setBits(bits)
	}
}

// FlipBit toggles one bit of the variable's machine representation (0 =
// least significant): the transient fault's mask XORed into its bits,
// the corruption every fault model applies at injection. A bit outside
// the kind's width is a *bitflip.BadBitError and leaves the variable
// unchanged.
func (v VarRef) FlipBit(bit int) error {
	if v.ref == nil {
		return errNoVariable
	}
	mask, err := bitflip.Fault{}.Mask(v.Kind, bit)
	if err != nil {
		return err
	}
	v.ref.setBits(v.ref.bits() ^ mask)
	return nil
}

// Float64Ref adapts a *float64 to a VarRef.
func Float64Ref(name string, p *float64) VarRef {
	return VarRef{Name: name, Kind: bitflip.Float64, ref: (*f64)(p)}
}

// Int64Ref adapts a *int64 to a VarRef.
func Int64Ref(name string, p *int64) VarRef {
	return VarRef{Name: name, Kind: bitflip.Int64, ref: (*i64)(p)}
}

// Int32Ref adapts a *int32 to a VarRef.
func Int32Ref(name string, p *int32) VarRef {
	return VarRef{Name: name, Kind: bitflip.Int32, ref: (*i32)(p)}
}

// Uint64Ref adapts a *uint64 to a VarRef.
func Uint64Ref(name string, p *uint64) VarRef {
	return VarRef{Name: name, Kind: bitflip.Uint64, ref: (*u64)(p)}
}

// BoolRef adapts a *bool to a VarRef (false=0, true=1).
func BoolRef(name string, p *bool) VarRef {
	return VarRef{Name: name, Kind: bitflip.Bool, ref: (*flag)(p)}
}

// Probe receives instrumentation visits from a running target. The
// engine installs probes that inject and sample; golden runs install a
// recording probe; detector validation installs an asserting probe.
type Probe interface {
	// Visit is called by the target at every instrumentation point with
	// live references to the module's variables, in a stable order.
	Visit(module string, loc Location, vars []VarRef)
}

// NopProbe ignores all visits. Targets can use it for plain execution.
type NopProbe struct{}

// Visit implements Probe.
func (NopProbe) Visit(string, Location, []VarRef) {}

var _ Probe = NopProbe{}

// VarDecl declares an instrumented variable in a module's interface.
type VarDecl struct {
	Name string
	Kind bitflip.Kind
}

// ModuleInfo describes one instrumented module of a target system.
type ModuleInfo struct {
	Name string
	Vars []VarDecl
}

// TestCase is one workload configuration for a target run. ID is unique
// within a generated suite; Seed makes the workload reproducible.
type TestCase struct {
	ID   int
	Seed uint64
	// Params carries target-specific knobs (e.g. aircraft mass, wind
	// speed, file count) purely for reporting.
	Params map[string]float64
}

// Target is a system under fault injection. Implementations live in
// internal/targets.
type Target interface {
	// Name returns the short system name (e.g. "7-Zip").
	Name() string
	// Modules lists the instrumented modules and their variables.
	Modules() []ModuleInfo
	// TestCases generates n deterministic workload configurations.
	TestCases(n int, seed uint64) []TestCase
	// Run executes one test case, calling probe at every
	// instrumentation point, and returns an opaque output value.
	Run(tc TestCase, probe Probe) (any, error)
	// Failed decides whether an injected run's output constitutes a
	// failure with respect to the golden run's output (the failure
	// specification of paper §VI-F).
	Failed(tc TestCase, golden, observed any) bool
}

// Module returns the ModuleInfo with the given name from a target.
func Module(t Target, name string) (ModuleInfo, bool) {
	for _, m := range t.Modules() {
		if m.Name == name {
			return m, true
		}
	}
	return ModuleInfo{}, false
}
