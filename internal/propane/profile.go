package propane

import (
	"fmt"
	"math"
)

// VarProfile is the observed healthy range of one instrumented variable
// at a location, collected over golden (fault-free) runs. Range-check
// executable assertions — the specification/experience-derived
// detectors of Hiller et al. that the paper's methodology is contrasted
// with — are built directly from these profiles.
type VarProfile struct {
	Var string
	Min float64
	Max float64
	// Samples is the number of observations behind the range.
	Samples int
}

// ProfileGolden runs every test case fault-free and records the value
// range of each module variable at the given location.
func ProfileGolden(target Target, spec Spec) ([]VarProfile, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mod, ok := Module(target, spec.Module)
	if !ok {
		return nil, fmt.Errorf("%w: %q in %q", ErrModuleNotFound, spec.Module, target.Name())
	}
	probe := &profileProbe{
		module: spec.Module,
		loc:    spec.SampleAt,
		mins:   make([]float64, len(mod.Vars)),
		maxs:   make([]float64, len(mod.Vars)),
	}
	for i := range probe.mins {
		probe.mins[i] = math.Inf(1)
		probe.maxs[i] = math.Inf(-1)
	}
	for _, tc := range target.TestCases(spec.TestCases, spec.Seed) {
		if _, err := safely(func() (any, error) { return target.Run(tc, probe) }); err != nil {
			return nil, fmt.Errorf("propane: golden profile run %d: %w", tc.ID, err)
		}
	}
	profiles := make([]VarProfile, len(mod.Vars))
	for i, v := range mod.Vars {
		profiles[i] = VarProfile{
			Var:     v.Name,
			Min:     probe.mins[i],
			Max:     probe.maxs[i],
			Samples: probe.samples,
		}
	}
	return profiles, nil
}

// profileProbe accumulates per-variable min/max at one location.
type profileProbe struct {
	module  string
	loc     Location
	mins    []float64
	maxs    []float64
	samples int
}

var _ Probe = (*profileProbe)(nil)

func (p *profileProbe) Visit(module string, loc Location, vars []VarRef) {
	if module != p.module || loc != p.loc {
		return
	}
	p.samples++
	for i, v := range vars {
		if i >= len(p.mins) {
			break
		}
		x := v.Read()
		if x < p.mins[i] {
			p.mins[i] = x
		}
		if x > p.maxs[i] {
			p.maxs[i] = x
		}
	}
}
