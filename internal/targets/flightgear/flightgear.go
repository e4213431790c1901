// Package flightgear implements the FlightGear-analog target system of
// the paper (§VI-B): a fixed-wing takeoff simulator executing 2700
// iterations of a main simulation loop (500 initialisation + 2200
// pre/post-injection), with a control module providing a consistent
// input vector at each iteration.
//
// Two modules are instrumented, matching Table II:
//
//   - Gear: landing-gear dynamics (ground reaction, rolling friction,
//     strut compression, retraction). Its state is strongly correlated
//     with flight phase, which is why Gear datasets (FG-A*) are highly
//     learnable.
//   - Mass: mass properties (fuel burn, total mass, centre of gravity).
//     Whether a corrupted mass value leads to failure depends on wind
//     and loading conditions that are NOT visible in the Mass module's
//     state, which is why Mass datasets (FG-B1/FG-B3) plateau below
//     full completeness in the paper.
//
// The failure specification implements §VI-F: speed failures, distance
// failures and angle failures.
//
// Role in the methodology: a Step 1 system under injection (datasets
// FG-A*/FG-B* of Table II). Concurrency: System is a stateless value —
// each Run call constructs its whole simulation state from the test
// case, so campaign workers share one System and call Run concurrently;
// the per-run Probe is the only externally supplied state.
package flightgear

import (
	"fmt"
	"math"

	"edem/internal/bitflip"
	"edem/internal/propane"
)

// Simulation constants (SI units internally; test-case parameters use
// the paper's lbs / kph).
const (
	// Iterations is the total number of main-loop iterations per run.
	Iterations = 2700
	// InitIterations is the initialisation period at the start of a run.
	InitIterations = 500

	dt            = 0.02  // s per iteration
	gravity       = 9.81  // m/s^2
	airRho        = 1.225 // kg/m^3 at sea level
	wingArea      = 16.0  // m^2
	clMax         = 1.6   // max lift coefficient
	clRoll        = 0.45  // lift coefficient during ground roll
	cd0           = 0.035 // parasitic drag coefficient
	kInduced      = 0.040 // induced drag factor
	muRoll        = 0.035 // rolling friction coefficient
	residBrake    = 0.002 // residual brake drag coefficient during takeoff
	gearDragCoeff = 0.03  // parasitic drag factor of the extended gear

	maxThrust   = 1900.0 // N static thrust
	thrustDecay = 0.012  // thrust loss per m/s of airspeed

	lbToKg   = 0.45359237
	kphToMps = 1.0 / 3.6

	// BaseWeightLbs is the aircraft base weight used by the distance
	// failure specification.
	BaseWeightLbs = 1300.0

	// baseTakeoffDistance is the manufacturer's specified takeoff
	// distance at base weight; the spec adds 10 m per additional 200 lbs
	// (paper §VI-F).
	baseTakeoffDistance = 140.0 // m
	// quadLoadCoeff is the quadratic loading correction of the takeoff
	// distance specification, in metres per (200 lbs over base)^2.
	quadLoadCoeff = 25.5

	// maxPitchRate is the angle-failure threshold (deg/s) before the
	// aircraft is clear of the runway.
	maxPitchRate = 4.5
	// obstacleHeight is the "clear of runway" altitude (50 ft).
	obstacleHeight = 15.0 // m

	targetPitch  = 8.0 // deg commanded during rotation
	nominalMass  = 800 // kg, reference for pitch response scaling
	stallMargin  = 1.0 // multiplier on stall speed for stall detection
	rotateFactor = 1.10
	safeFactor   = 1.18
)

// Module names as they appear in Table II.
const (
	ModuleGear = "Gear"
	ModuleMass = "Mass"
)

// System is the FlightGear-analog target. The zero value is ready to use.
type System struct{}

var _ propane.Target = System{}

// Name implements propane.Target.
func (System) Name() string { return "FlightGear" }

// Modules implements propane.Target.
func (System) Modules() []propane.ModuleInfo {
	return []propane.ModuleInfo{
		{
			Name: ModuleGear,
			Vars: []propane.VarDecl{
				{Name: "gearPosition", Kind: bitflip.Float64},
				{Name: "compression", Kind: bitflip.Float64},
				{Name: "normalForce", Kind: bitflip.Float64},
				{Name: "frictionForce", Kind: bitflip.Float64},
				{Name: "rollCoeff", Kind: bitflip.Float64},
				{Name: "brakeCoeff", Kind: bitflip.Float64},
				{Name: "weightOnWheels", Kind: bitflip.Bool},
				{Name: "gearDrag", Kind: bitflip.Float64},
				{Name: "strutLoad", Kind: bitflip.Float64},
			},
		},
		{
			Name: ModuleMass,
			Vars: []propane.VarDecl{
				{Name: "emptyMass", Kind: bitflip.Float64},
				{Name: "fuelMass", Kind: bitflip.Float64},
				{Name: "maxFuel", Kind: bitflip.Float64},
				{Name: "totalMass", Kind: bitflip.Float64},
				{Name: "fuelFlow", Kind: bitflip.Float64},
				{Name: "cgOffset", Kind: bitflip.Float64},
				{Name: "inertiaPitch", Kind: bitflip.Float64},
			},
		},
	}
}

// TestCases implements propane.Target: the paper's 9 test cases, 3
// aircraft masses x 3 wind speeds uniformly distributed across
// 1300-2100 lbs and 0-60 kph (§VI-C). n caps the suite size; seed is
// unused because the FlightGear workload grid is deterministic.
func (System) TestCases(n int, seed uint64) []propane.TestCase {
	masses := []float64{1300, 1700, 2100} // lbs
	winds := []float64{0, 30, 60}         // kph headwind
	var tcs []propane.TestCase
	id := 0
	for _, m := range masses {
		for _, w := range winds {
			if n > 0 && id >= n {
				return tcs
			}
			tcs = append(tcs, propane.TestCase{
				ID:   id,
				Seed: seed + uint64(id),
				Params: map[string]float64{
					"massLbs": m,
					"windKph": w,
				},
			})
			id++
		}
	}
	return tcs
}

// Outcome is the observable output of one takeoff run, from which the
// failure specification is evaluated.
type Outcome struct {
	// ReachedCritical reports passing the critical ground speed.
	ReachedCritical bool
	// ReachedRotate reports passing the velocity of rotation.
	ReachedRotate bool
	// ReachedSafe reports reaching the safe takeoff speed.
	ReachedSafe bool
	// TakeoffDistance is the ground distance at liftoff (m). Infinite if
	// the aircraft never lifted off.
	TakeoffDistance float64
	// MaxPitchRateBeforeClear is the maximum pitch rate (deg/s)
	// observed before clearing the runway obstacle height.
	MaxPitchRateBeforeClear float64
	// Stalled reports a stall during climb out.
	Stalled bool
	// ClearedObstacle reports climbing past the obstacle height.
	ClearedObstacle bool
}

// Run implements propane.Target.
func (s System) Run(tc propane.TestCase, probe propane.Probe) (any, error) {
	st, err := s.newRunState(tc)
	if err != nil {
		return nil, err
	}
	return s.exec(st, probe, nil, 0, 0)
}

// runState is the complete resumable execution state of one run: the
// loop position plus the simulation state. The simulation state is all
// scalars, so a value copy is a deep copy.
type runState struct {
	iter  int // current main-loop iteration, 1-based
	phase int // next phase to execute within the iteration (see exec)
	sim   state

	// VarRef slices over sim's module fields, built once per runState
	// by refs and never cloned (a clone's refs point at the clone's
	// fields).
	gearVars, massVars []propane.VarRef
}

func (s System) newRunState(tc propane.TestCase) (*runState, error) {
	massLbs, ok := tc.Params["massLbs"]
	if !ok {
		return nil, fmt.Errorf("flightgear: test case %d missing massLbs", tc.ID)
	}
	windKph, ok := tc.Params["windKph"]
	if !ok {
		return nil, fmt.Errorf("flightgear: test case %d missing windKph", tc.ID)
	}
	return &runState{iter: 1, sim: *newState(massLbs*lbToKg, windKph*kphToMps)}, nil
}

// Clone implements propane.State.
func (r *runState) Clone() propane.State {
	return &runState{iter: r.iter, phase: r.phase, sim: r.sim}
}

// Digest implements propane.State, fingerprinting every field that can
// reach the run's outcome, an error or panic, or another variable:
// position, kinematics, phase bookkeeping, the accumulated outcome and
// every instrumented variable, since none is a write-only statistic.
func (r *runState) Digest() propane.Digest {
	h := propane.NewStateHasher()
	h.Int(r.iter)
	h.Int(r.phase)
	s := &r.sim
	for _, v := range []float64{
		s.x, s.h, s.v, s.vs, s.pitch, s.pitchRt, s.wind,
		s.gearPosition, s.compression, s.normalForce, s.frictionForce,
		s.rollCoeff, s.brakeCoeff, s.gearDrag, s.strutLoad,
		s.emptyMass, s.fuelMass, s.maxFuel, s.totalMass, s.fuelFlow,
		s.cgOffset, s.inertiaPitch, s.liftoffX,
		s.outcome.TakeoffDistance, s.outcome.MaxPitchRateBeforeClear,
	} {
		h.Float64(v)
	}
	for _, b := range []bool{
		s.weightOnWheels, s.airborne,
		s.outcome.ReachedCritical, s.outcome.ReachedRotate,
		s.outcome.ReachedSafe, s.outcome.Stalled, s.outcome.ClearedObstacle,
	} {
		h.Bool(b)
	}
	return h.Sum()
}

// refs returns the state's VarRef slices, building them on its first
// probed run. Golden and snapshot runs pass NopProbe and never call
// this, so they build no slices.
func (r *runState) refs() (gear, mass []propane.VarRef) {
	if r.gearVars == nil {
		r.gearVars = r.sim.gearVarRefs()
		r.massVars = r.sim.massVarRefs()
	}
	return r.gearVars, r.massVars
}

// Phase indices within one iteration. Each phase executes "everything
// up to and including the next instrumentation visit's work", so a
// snapshot taken at (iter, phase) resumes with that phase's visit as
// the next visit issued.
const (
	phaseGearEntry = iota // Gear Entry visit + updateGear
	phaseGearExit         // Gear Exit visit
	phaseMassEntry        // Mass Entry visit + updateMass
	phaseMassExit         // Mass Exit visit + integrate
)

// exec advances the simulation from st's position to completion,
// issuing probe visits in the canonical order. With stopIter > 0 it
// instead returns (nil, nil) the moment st reaches (stopIter,
// stopPhase) — before that phase's visit — which is how Snapshot
// positions a state. ctl, when non-nil, is consulted at the end of
// every completed iteration.
func (s System) exec(st *runState, probe propane.Probe, ctl *propane.RunControl, stopIter, stopPhase int) (any, error) {
	_, nop := probe.(propane.NopProbe)
	var gearVars, massVars []propane.VarRef
	if !nop {
		gearVars, massVars = st.refs()
	}
	step := 0
	for st.iter <= Iterations {
		// Control module: consistent input vector per iteration
		// (§VI-C). Full throttle after init; pitch command by phase.
		throttle := 0.0
		if st.iter > InitIterations {
			throttle = 1.0
		}

		if st.phase == phaseGearEntry {
			if st.iter == stopIter && stopPhase == phaseGearEntry {
				return nil, nil
			}
			if !nop {
				probe.Visit(ModuleGear, propane.Entry, gearVars)
			}
			st.sim.updateGear()
			st.phase = phaseGearExit
		}
		if st.phase == phaseGearExit {
			if st.iter == stopIter && stopPhase == phaseGearExit {
				return nil, nil
			}
			if !nop {
				probe.Visit(ModuleGear, propane.Exit, gearVars)
			}
			st.phase = phaseMassEntry
		}
		if st.phase == phaseMassEntry {
			if st.iter == stopIter && stopPhase == phaseMassEntry {
				return nil, nil
			}
			if !nop {
				probe.Visit(ModuleMass, propane.Entry, massVars)
			}
			st.sim.updateMass()
			st.phase = phaseMassExit
		}
		if st.phase == phaseMassExit {
			if st.iter == stopIter && stopPhase == phaseMassExit {
				return nil, nil
			}
			if !nop {
				probe.Visit(ModuleMass, propane.Exit, massVars)
			}
			st.sim.integrate(throttle)
			st.phase = phaseGearEntry
			st.iter++
			step++
			if ctl.Checkpoint(step, st) {
				return nil, propane.ErrConverged
			}
		}
	}
	return st.sim.outcome, nil
}

var _ propane.Forkable = System{}

// Snapshot implements propane.Forkable: every module location activates
// exactly once per main-loop iteration, so the activation-th visit of
// (module, at) occurs in iteration `activation` at a fixed phase.
func (s System) Snapshot(tc propane.TestCase, module string, at propane.Location, activation int) (propane.State, bool, error) {
	var phase int
	switch {
	case module == ModuleGear && at == propane.Entry:
		phase = phaseGearEntry
	case module == ModuleGear && at == propane.Exit:
		phase = phaseGearExit
	case module == ModuleMass && at == propane.Entry:
		phase = phaseMassEntry
	case module == ModuleMass && at == propane.Exit:
		phase = phaseMassExit
	default:
		return nil, false, nil
	}
	if activation < 1 || activation > Iterations {
		return nil, false, nil
	}
	st, err := s.newRunState(tc)
	if err != nil {
		return nil, false, err
	}
	if _, err := s.exec(st, propane.NopProbe{}, nil, activation, phase); err != nil {
		return nil, false, err
	}
	if st.iter != activation || st.phase != phase {
		return nil, false, nil
	}
	return st, true, nil
}

// RunFrom implements propane.Forkable.
func (s System) RunFrom(st propane.State, probe propane.Probe, ctl *propane.RunControl) (any, error) {
	rs, ok := st.(*runState)
	if !ok {
		return nil, fmt.Errorf("flightgear: foreign state %T", st)
	}
	return s.exec(rs, probe, ctl, 0, 0)
}

// Failed implements propane.Target, applying the failure specification
// of §VI-F. FlightGear failures are specification violations (informed
// by golden-run observation), so the golden outcome is used only to
// confirm the run was expected to succeed.
func (System) Failed(tc propane.TestCase, golden, observed any) bool {
	obs, ok := observed.(Outcome)
	if !ok {
		return true
	}
	massLbs := tc.Params["massLbs"]
	spec := SpecTakeoffDistance(massLbs)

	// Speed failure: failed to reach a safe takeoff speed.
	if !obs.ReachedSafe {
		return true
	}
	// Distance failure: takeoff distance exceeds the specified distance.
	if !(obs.TakeoffDistance <= spec) { // NaN-safe: NaN counts as failure
		return true
	}
	// Angle failure: pitch rate above 4.5 deg/s before clear of the
	// runway, or a stall during climb out.
	if obs.MaxPitchRateBeforeClear > maxPitchRate || obs.Stalled {
		return true
	}
	// Never clearing the obstacle despite "reaching" speeds indicates a
	// corrupted trajectory.
	return !obs.ClearedObstacle
}

// SpecTakeoffDistance returns the manufacturer-specified takeoff
// distance for the given aircraft weight. The specification follows
// §VI-F: the base distance grows by 10 m for every additional 200 lbs
// over the base weight, plus the type's published quadratic loading
// correction (heavier loadings pay more than the linear uplift because
// rotation speed grows with the square root of weight).
func SpecTakeoffDistance(massLbs float64) float64 {
	over := massLbs - BaseWeightLbs
	if over < 0 {
		over = 0
	}
	return baseTakeoffDistance + 10*(over/200) + quadLoadCoeff*(over/200)*(over/200)
}

// state is the complete simulation state of one run.
type state struct {
	// Kinematics.
	x, h    float64 // ground distance (m), altitude (m)
	v       float64 // ground speed (m/s)
	vs      float64 // vertical speed (m/s)
	pitch   float64 // deg
	pitchRt float64 // deg/s
	wind    float64 // headwind (m/s)

	// Gear module variables.
	gearPosition   float64 // 1 = down, 0 = retracted
	compression    float64 // strut compression fraction
	normalForce    float64 // N
	frictionForce  float64 // N
	rollCoeff      float64
	brakeCoeff     float64
	weightOnWheels bool
	gearDrag       float64 // N
	strutLoad      float64 // N per strut

	// Mass module variables.
	emptyMass    float64 // kg
	fuelMass     float64 // kg
	maxFuel      float64 // kg, tank capacity
	totalMass    float64 // kg
	fuelFlow     float64 // kg/s
	cgOffset     float64 // m from reference
	inertiaPitch float64 // kg m^2

	// Phase bookkeeping.
	airborne bool
	liftoffX float64

	outcome Outcome
}

func newState(massKg, windMps float64) *state {
	fuel := 0.18 * massKg
	s := &state{
		wind:         windMps,
		gearPosition: 1,
		rollCoeff:    muRoll,
		brakeCoeff:   residBrake,
		emptyMass:    massKg - fuel,
		fuelMass:     fuel,
		maxFuel:      0.28 * massKg,
		totalMass:    massKg,
		fuelFlow:     0.012,
		cgOffset:     0.25,
		inertiaPitch: 0.9 * massKg,
	}
	s.outcome.TakeoffDistance = math.Inf(1)
	return s
}

func (s *state) gearVarRefs() []propane.VarRef {
	return []propane.VarRef{
		propane.Float64Ref("gearPosition", &s.gearPosition),
		propane.Float64Ref("compression", &s.compression),
		propane.Float64Ref("normalForce", &s.normalForce),
		propane.Float64Ref("frictionForce", &s.frictionForce),
		propane.Float64Ref("rollCoeff", &s.rollCoeff),
		propane.Float64Ref("brakeCoeff", &s.brakeCoeff),
		propane.BoolRef("weightOnWheels", &s.weightOnWheels),
		propane.Float64Ref("gearDrag", &s.gearDrag),
		propane.Float64Ref("strutLoad", &s.strutLoad),
	}
}

func (s *state) massVarRefs() []propane.VarRef {
	return []propane.VarRef{
		propane.Float64Ref("emptyMass", &s.emptyMass),
		propane.Float64Ref("fuelMass", &s.fuelMass),
		propane.Float64Ref("maxFuel", &s.maxFuel),
		propane.Float64Ref("totalMass", &s.totalMass),
		propane.Float64Ref("fuelFlow", &s.fuelFlow),
		propane.Float64Ref("cgOffset", &s.cgOffset),
		propane.Float64Ref("inertiaPitch", &s.inertiaPitch),
	}
}

// updateGear computes ground reaction while on the ground and animates
// gear retraction after liftoff. rollCoeff and brakeCoeff are persistent
// configuration state; the force outputs are recomputed every activation.
func (s *state) updateGear() {
	airspeed := s.v + s.wind
	q := 0.5 * airRho * airspeed * airspeed
	lift := q * wingArea * s.liftCoeff()
	weight := s.totalMass * gravity

	if !s.airborne {
		s.weightOnWheels = true
		nf := weight - lift
		if nf < 0 {
			nf = 0
		}
		s.normalForce = nf
		s.compression = nf / (weight + 1)
		s.strutLoad = nf / 3
		s.frictionForce = (s.rollCoeff + s.brakeCoeff) * nf
	} else {
		// Airborne: retract the gear over ~4 s; loads drop to zero.
		s.weightOnWheels = false
		s.normalForce = 0
		s.compression = 0
		s.strutLoad = 0
		s.frictionForce = 0
		s.gearPosition -= dt / 4
		if s.gearPosition < 0 {
			s.gearPosition = 0
		}
	}
	gp := s.gearPosition
	if gp < 0 {
		gp = 0
	}
	s.gearDrag = gearDragCoeff * q * wingArea * gp
}

// updateMass burns fuel and recomputes mass properties. The fuel
// quantity is validated against the physical tank capacity: a corrupted
// reading beyond the tank clamps to full, so even wild fuel corruption
// manifests as a plausible (and therefore hard-to-detect) overweight
// condition whose consequences depend on wind and loading.
func (s *state) updateMass() {
	s.fuelMass -= s.fuelFlow * dt
	if s.fuelMass < 0 {
		s.fuelMass = 0
	}
	if cap := s.maxFuel; cap > 0 && s.fuelMass > cap {
		s.fuelMass = cap
	}
	s.totalMass = s.emptyMass + s.fuelMass
	s.cgOffset = 0.25 + 0.02*(s.fuelMass/(s.emptyMass+1))
	s.inertiaPitch = 0.9 * s.totalMass
}

// integrate advances the point-mass dynamics by one step.
func (s *state) integrate(throttle float64) {
	airspeed := s.v + s.wind
	q := 0.5 * airRho * airspeed * airspeed
	cl := s.liftCoeff()
	lift := q * wingArea * cl
	cd := cd0 + kInduced*cl*cl
	drag := q*wingArea*cd + s.gearDrag
	thrust := throttle * maxThrust * math.Max(0, 1-thrustDecay*airspeed)
	weight := s.totalMass * gravity

	// Longitudinal acceleration.
	accel := (thrust - drag - s.frictionForce) / s.totalMass
	s.v += accel * dt
	if s.v < 0 {
		s.v = 0
	}
	s.x += s.v * dt

	vr := rotateFactor * s.stallSpeed()
	v2 := safeFactor * s.stallSpeed()
	vCrit := 0.9 * s.stallSpeed()

	if airspeed >= vCrit {
		s.outcome.ReachedCritical = true
	}
	if airspeed >= vr {
		s.outcome.ReachedRotate = true
	}
	if airspeed >= v2 {
		s.outcome.ReachedSafe = true
	}

	// Pitch control: rotate once past Vr, with response inversely
	// proportional to pitch inertia (so corrupted mass properties
	// provoke angle failures).
	var qCmd float64
	if s.outcome.ReachedRotate && s.pitch < targetPitch {
		qCmd = 3.0 * (nominalMass * 0.9) / math.Max(s.inertiaPitch, 1)
	}
	s.pitchRt = qCmd
	s.pitch += s.pitchRt * dt
	if s.pitch > targetPitch {
		s.pitch = targetPitch
	}
	if !s.outcome.ClearedObstacle && s.pitchRt > s.outcome.MaxPitchRateBeforeClear {
		s.outcome.MaxPitchRateBeforeClear = s.pitchRt
	}

	// Vertical dynamics: lift off when lift exceeds weight.
	if !s.airborne {
		if lift > weight && s.outcome.ReachedRotate {
			s.airborne = true
			s.liftoffX = s.x
			s.outcome.TakeoffDistance = s.x
		}
	} else {
		vAccel := (lift - weight) / s.totalMass
		s.vs += vAccel * dt
		// Damp vertical oscillation: simple climb model.
		if s.vs > 5 {
			s.vs = 5
		}
		if s.vs < -5 {
			s.vs = -5
		}
		s.h += s.vs * dt
		if s.h < 0 {
			s.h = 0
			s.vs = 0
			s.airborne = false
		}
		if s.h >= obstacleHeight {
			s.outcome.ClearedObstacle = true
		}
		if airspeed < stallMargin*s.stallSpeed() && s.h > 1 {
			s.outcome.Stalled = true
		}
	}
}

// liftCoeff returns the current lift coefficient: a rolling value on the
// ground, growing with pitch once rotated.
func (s *state) liftCoeff() float64 {
	cl := clRoll + (clMax-clRoll)*clamp01(s.pitch/targetPitch)
	return cl
}

// stallSpeed derives the stall speed from current mass. Corrupted mass
// values shift every speed gate, which is how Mass-module faults become
// speed and distance failures.
func (s *state) stallSpeed() float64 {
	m := s.totalMass
	if !(m > 1) { // guard NaN and nonsense masses
		m = 1
	}
	return math.Sqrt(2 * m * gravity / (airRho * wingArea * clMax))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
