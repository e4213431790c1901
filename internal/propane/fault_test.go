package propane

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"edem/internal/bitflip"
	"edem/internal/telemetry"
)

// TestVarRefRawAccessors: every constructor-built VarRef exposes the
// raw machine representation, and applying an XOR mask twice through
// Bits/SetBits restores the original bit pattern exactly — including
// NaN payloads and infinities, where value comparison would lie. This
// is the apply/revert round-trip every fault model relies on.
func TestVarRefRawAccessors(t *testing.T) {
	var (
		f64 float64
		f32 float32
		i64 int64
		i32 int32
		i   int
		u64 uint64
		b   bool
	)
	refs := map[string]struct {
		ref  VarRef
		set  func(bits uint64)
		vals []uint64 // interesting raw patterns to start from
	}{
		"float64": {Float64Ref("v", &f64), func(x uint64) { f64 = math.Float64frombits(x) },
			[]uint64{0, math.Float64bits(1.5), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
				0x7ff8000000000001 /* NaN payload */, math.Float64bits(math.Copysign(0, -1))}},
		"float32": {Float32Ref("v", &f32), func(x uint64) { f32 = math.Float32frombits(uint32(x)) },
			[]uint64{0, uint64(math.Float32bits(2.25)), uint64(math.Float32bits(float32(math.Inf(1)))),
				0x7fc00001 /* NaN payload */}},
		"int64": {Int64Ref("v", &i64), func(x uint64) { i64 = int64(x) },
			[]uint64{0, 7, ^uint64(0) /* -1 */, 1 << 63}},
		"int32": {Int32Ref("v", &i32), func(x uint64) { i32 = int32(uint32(x)) },
			[]uint64{0, 42, 0xffffffff /* -1, zero-extended */, 1 << 31}},
		"int": {IntRef("v", &i), func(x uint64) { i = int(int64(x)) },
			[]uint64{0, 99, ^uint64(0)}},
		"uint64": {Uint64Ref("v", &u64), func(x uint64) { u64 = x },
			[]uint64{0, 1, ^uint64(0)}},
		"bool": {BoolRef("v", &b), func(x uint64) { b = x&1 == 1 },
			[]uint64{0, 1}},
	}
	for name, c := range refs {
		if c.ref.ref == nil {
			t.Fatalf("%s: constructor left the VarRef without a variable", name)
		}
		width := c.ref.Kind.Bits()
		for _, start := range c.vals {
			for bit := 0; bit < width; bit += 7 { // sample positions incl. 0
				mask, err := (bitflip.Fault{Model: bitflip.Burst, Width: 1 + bit%3}).Mask(c.ref.Kind, bit)
				if err != nil {
					continue // burst spills past the top bit; covered elsewhere
				}
				c.set(start)
				if got := c.ref.Bits(); got != start {
					t.Fatalf("%s: Bits() = %#x after set %#x", name, got, start)
				}
				c.ref.SetBits(c.ref.Bits() ^ mask)
				if got := c.ref.Bits(); got != start^mask {
					t.Fatalf("%s: apply: Bits() = %#x, want %#x", name, got, start^mask)
				}
				c.ref.SetBits(c.ref.Bits() ^ mask) // XOR is self-inverse: revert
				if got := c.ref.Bits(); got != start {
					t.Fatalf("%s: revert: Bits() = %#x, want %#x (bit %d mask %#x)", name, got, start, bit, mask)
				}
			}
		}
	}
}

// fv builds the visit slice for the probe-level model tests.
func faultVars(x *int64, y *float64) []VarRef {
	return []VarRef{Int64Ref("x", x), Float64Ref("y", y)}
}

// TestInjectProbeBurst: a burst flips Width adjacent bits once and
// never touches the variable again.
func TestInjectProbeBurst(t *testing.T) {
	x, y := int64(0), 0.0
	p := &injectProbe{
		module: "M", injectAt: Entry, sampleAt: Exit, injTime: 2, varName: "x",
		bit: 1, fault: bitflip.Fault{Model: bitflip.Burst, Width: 3}.Normalized(),
	}
	p.Visit("M", Entry, faultVars(&x, &y)) // activation 1: no injection
	if x != 0 {
		t.Fatalf("injected before injTime: x=%d", x)
	}
	p.Visit("M", Entry, faultVars(&x, &y)) // activation 2: burst
	if x != 0b1110 {
		t.Fatalf("burst width 3 at bit 1: x=%#b, want 0b1110", x)
	}
	if !p.injected || p.flipErr {
		t.Fatalf("probe state after burst: %+v", p)
	}
	p.Visit("M", Exit, faultVars(&x, &y)) // sample
	if !p.sampled || p.state[0] != float64(x) {
		t.Fatalf("sample after burst: sampled=%v state=%v", p.sampled, p.state)
	}
	x = 5
	p.Visit("M", Entry, faultVars(&x, &y)) // later activations: no re-assertion
	if x != 5 {
		t.Fatalf("burst re-asserted: x=%d, want 5", x)
	}
}

// TestInjectProbeStuckAt: the corrupted bit value is re-asserted at
// every later activation of the injection location, even after the
// target overwrites the variable, and other bits pass through.
func TestInjectProbeStuckAt(t *testing.T) {
	x, y := int64(0), 0.0
	p := &injectProbe{
		module: "M", injectAt: Entry, sampleAt: Exit, injTime: 1, varName: "x",
		bit: 0, fault: bitflip.Fault{Model: bitflip.StuckAt}.Normalized(),
	}
	p.Visit("M", Entry, faultVars(&x, &y))
	if x != 1 {
		t.Fatalf("stuck-at complement at injection: x=%d, want 1", x)
	}
	p.Visit("M", Exit, faultVars(&x, &y))
	if !p.sampled {
		t.Fatal("state not sampled")
	}
	// The target overwrites x with an even value; bit 0 must be forced
	// back to its stuck value (1) at the next injection-location visit,
	// while the high bits survive.
	x = 8
	p.Visit("M", Entry, faultVars(&x, &y))
	if x != 9 {
		t.Fatalf("stuck-at re-assertion: x=%d, want 9", x)
	}
	x = 3 // bit already at the stuck value: re-assertion is a no-op
	p.Visit("M", Entry, faultVars(&x, &y))
	if x != 3 {
		t.Fatalf("stuck-at disturbed a matching value: x=%d, want 3", x)
	}
	// Sampling-location visits after the sample do not re-assert.
	x = 4
	p.Visit("M", Exit, faultVars(&x, &y))
	if x != 4 {
		t.Fatalf("stuck-at asserted at the sampling location: x=%d, want 4", x)
	}
}

// TestInjectProbeIntermittent: the fault holds for Persist activations
// in total, then releases the variable for good.
func TestInjectProbeIntermittent(t *testing.T) {
	x, y := int64(0), 0.0
	p := &injectProbe{
		module: "M", injectAt: Entry, sampleAt: Entry, injTime: 1, varName: "x",
		bit: 2, fault: bitflip.Fault{Model: bitflip.Intermittent, Persist: 2}.Normalized(),
	}
	p.Visit("M", Entry, faultVars(&x, &y)) // assertion 1 (the injection) + same-visit sample
	if x != 4 || !p.sampled {
		t.Fatalf("injection activation: x=%d sampled=%v", x, p.sampled)
	}
	x = 0
	p.Visit("M", Entry, faultVars(&x, &y)) // assertion 2: still held
	if x != 4 {
		t.Fatalf("persist=2 second assertion: x=%d, want 4", x)
	}
	x = 0
	p.Visit("M", Entry, faultVars(&x, &y)) // released
	if x != 0 {
		t.Fatalf("released intermittent still asserting: x=%d, want 0", x)
	}
}

// faultlessTarget doubles one float64 between its Entry and Exit
// visits. With noRef set it passes a zero VarRef instead, one that
// refers to no variable: a per-record flip error under every model.
type faultlessTarget struct{ noRef bool }

func (faultlessTarget) Name() string { return "NoRef" }
func (faultlessTarget) Modules() []ModuleInfo {
	return []ModuleInfo{{Name: "M", Vars: []VarDecl{{Name: "x", Kind: bitflip.Float64}}}}
}
func (faultlessTarget) TestCases(n int, seed uint64) []TestCase {
	tcs := make([]TestCase, n)
	for i := range tcs {
		tcs[i] = TestCase{ID: i, Seed: seed}
	}
	return tcs
}
func (f faultlessTarget) Run(tc TestCase, probe Probe) (any, error) {
	x := 1.0
	vars := []VarRef{Float64Ref("x", &x)}
	if f.noRef {
		vars[0] = VarRef{Name: "x", Kind: bitflip.Float64}
	}
	probe.Visit("M", Entry, vars)
	x *= 2
	probe.Visit("M", Exit, vars)
	return x, nil
}
func (faultlessTarget) Failed(_ TestCase, golden, observed any) bool { return golden != observed }

// TestFaultModelErrSurfaced: under every fault model, a VarRef{Name,
// Kind} literal with no variable marks every record FlipErr without
// crashing the run (the injector's v.ref == nil guard: the mask fits,
// but there is nothing to XOR it into), and non-transient models also
// count each record in campaign.fault_model_errors.
func TestFaultModelErrSurfaced(t *testing.T) {
	for _, fault := range []bitflip.Fault{
		{},
		{Model: bitflip.Burst, Width: 2},
		{Model: bitflip.StuckAt},
		{Model: bitflip.Intermittent, Persist: 2},
	} {
		t.Run(fault.String(), func(t *testing.T) {
			spec := Spec{
				Dataset: "NR-A2", Module: "M", InjectAt: Entry, SampleAt: Exit,
				InjectionTimes: []int{1}, TestCases: 1, Seed: 1, BitStride: 16,
				Fault: fault,
			}
			reg := telemetry.New()
			camp, err := Run(telemetry.WithRegistry(context.Background(), reg), faultlessTarget{noRef: true}, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(camp.Records) == 0 {
				t.Fatal("no records")
			}
			for i, r := range camp.Records {
				if !r.FlipErr || r.Crashed || r.Failure || !r.Sampled || r.State[0] != 0 {
					t.Fatalf("record %d: zero VarRef not a surfaced, uncrashed flip error: %+v", i, r)
				}
			}
			want := int64(len(camp.Records))
			if fault.IsTransient() {
				want = 0
			}
			snap := reg.Snapshot()
			if got := snap.Counters["campaign.flip_errors"]; got != int64(len(camp.Records)) {
				t.Errorf("campaign.flip_errors = %d, want %d", got, len(camp.Records))
			}
			if got := snap.Counters["campaign.fault_model_errors"]; got != want {
				t.Errorf("campaign.fault_model_errors = %d, want %d", got, want)
			}
		})
	}
}

// TestFaultModelErrBurstTooWide: a burst wider than a variable (bool)
// is a per-record flip error on that variable only; wider variables in
// the same campaign inject normally.
func TestFaultModelErrBurstTooWide(t *testing.T) {
	spec := toySpec()
	spec.Fault = bitflip.Fault{Model: bitflip.Burst, Width: 2}
	target := &boolToy{}
	camp, err := Run(context.Background(), target, spec)
	if err != nil {
		t.Fatal(err)
	}
	sawBool, sawWide := false, false
	for _, r := range camp.Records {
		switch {
		case r.Var == "flag" || r.Bit == 63:
			// The burst spills past the variable's top bit: bool has a
			// single bit, and bit 63+2 exceeds int64's 64. Both surface.
			sawBool = sawBool || r.Var == "flag"
			if !r.FlipErr {
				t.Fatalf("out-of-range burst not surfaced: %+v", r)
			}
		default:
			sawWide = true
			if r.FlipErr {
				t.Fatalf("burst on %s: unexpected FlipErr: %+v", r.Var, r)
			}
		}
	}
	if !sawBool || !sawWide {
		t.Fatalf("campaign did not cover both variables (bool=%v, wide=%v)", sawBool, sawWide)
	}
}

// boolToy pairs a bool with an int64 in one module so unsupported and
// supported combos coexist in one campaign.
type boolToy struct{}

func (boolToy) Name() string { return "BoolToy" }
func (boolToy) Modules() []ModuleInfo {
	return []ModuleInfo{{Name: "M", Vars: []VarDecl{
		{Name: "acc", Kind: bitflip.Int64},
		{Name: "flag", Kind: bitflip.Bool},
	}}}
}
func (boolToy) TestCases(n int, seed uint64) []TestCase {
	tcs := make([]TestCase, n)
	for i := range tcs {
		tcs[i] = TestCase{ID: i, Seed: seed}
	}
	return tcs
}
func (boolToy) Run(tc TestCase, probe Probe) (any, error) {
	var acc int64
	flag := true
	vars := []VarRef{Int64Ref("acc", &acc), BoolRef("flag", &flag)}
	for i := 0; i < 5; i++ {
		probe.Visit("M", Entry, vars)
		if flag {
			acc += int64(tc.ID + 1)
		}
		probe.Visit("M", Exit, vars)
	}
	return acc, nil
}
func (boolToy) Failed(_ TestCase, golden, observed any) bool { return golden != observed }

// TestRunDeterminismPerModel: every model is deterministic — two runs
// of the same spec produce bit-identical records.
func TestRunDeterminismPerModel(t *testing.T) {
	faults := map[string]bitflip.Fault{
		"transient":    {},
		"burst":        {Model: bitflip.Burst, Width: 3},
		"stuckat":      {Model: bitflip.StuckAt},
		"intermittent": {Model: bitflip.Intermittent, Persist: 2},
	}
	for name, f := range faults {
		t.Run(name, func(t *testing.T) {
			spec := toySpec()
			spec.Fault = f
			a, err := Run(context.Background(), &toyTarget{}, spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(context.Background(), &toyTarget{}, spec)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, a.Records, b.Records)
			if len(a.Records) != len(b.Records) || len(a.Records) == 0 {
				t.Fatal("empty campaign")
			}
		})
	}
	// The models genuinely differ: stuck-at must diverge from transient
	// on some record (the re-assertions change downstream behavior).
	spec := toySpec()
	tr, _ := Run(context.Background(), &toyTarget{}, spec)
	spec.Fault = bitflip.Fault{Model: bitflip.StuckAt}
	sa, _ := Run(context.Background(), &toyTarget{}, spec)
	differ := false
	for i := range tr.Records {
		if tr.Records[i].Failure != sa.Records[i].Failure || len(tr.Records[i].State) != len(sa.Records[i].State) {
			differ = true
			break
		}
		for k := range tr.Records[i].State {
			if math.Float64bits(tr.Records[i].State[k]) != math.Float64bits(sa.Records[i].State[k]) {
				differ = true
			}
		}
	}
	if !differ {
		t.Error("stuck-at campaign is record-identical to transient; re-assertion is a no-op?")
	}
}

// TestForkEquivalenceBurst extends the fork bit-identity invariant to
// the burst model: the forking and slow paths yield identical records.
func TestForkEquivalenceBurst(t *testing.T) {
	for _, at := range []struct {
		name           string
		inject, sample Location
	}{
		{"entry-exit", Entry, Exit},
		{"exit-exit", Exit, Exit},
	} {
		t.Run(at.name, func(t *testing.T) {
			spec := toySpec()
			spec.InjectAt, spec.SampleAt = at.inject, at.sample
			spec.Fault = bitflip.Fault{Model: bitflip.Burst, Width: 4}
			slow, err := Run(context.Background(), slowPath(&forkToy{}), spec)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := Run(context.Background(), &forkToy{}, spec)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, fast.Records, slow.Records)
		})
	}
}

// TestPersistentModelsRefuseFork pins the soundness guard: stuck-at and
// intermittent cells never take the fork fast path — every cell is a
// counted fallback, no snapshot is taken, and the end-to-end result
// still matches the slow path bit for bit.
func TestPersistentModelsRefuseFork(t *testing.T) {
	for _, f := range []bitflip.Fault{
		{Model: bitflip.StuckAt},
		{Model: bitflip.Intermittent, Persist: 3},
	} {
		t.Run(f.String(), func(t *testing.T) {
			spec := toySpec()
			spec.Fault = f
			target := &forkToy{}
			mod, _ := Module(target, "M")
			tcs := target.TestCases(spec.TestCases, spec.Seed)
			golden, err := RunGolden(target, tcs[0])
			if err != nil {
				t.Fatal(err)
			}
			fr := NewForkRunner(target, spec, mod)
			jobs := spec.Jobs(mod)
			for _, j := range jobs[:4] {
				got := fr.RunJob(j.TC, tcs[j.TC], golden, j)
				want := RunJob(target, spec, mod, tcs[j.TC], golden, j)
				sameRecords(t, []Record{got}, []Record{want})
			}
			if st := fr.Stats(); st != (ForkStats{Fallbacks: 4}) {
				t.Fatalf("persistent fork stats: %+v, want 4 fallbacks and nothing else", st)
			}

			slow, err := Run(context.Background(), slowPath(target), spec)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := Run(context.Background(), target, spec)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, fast.Records, slow.Records)
		})
	}
}

// TestLogFaultHeaderRoundTrip: non-transient campaigns write a #fault
// header that survives the log round trip; transient logs stay
// byte-free of it.
func TestLogFaultHeaderRoundTrip(t *testing.T) {
	spec := toySpec()
	spec.Fault = bitflip.Fault{Model: bitflip.Intermittent, Persist: 4}
	camp, err := Run(context.Background(), &toyTarget{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, camp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "#fault intermittent 1 4\n") {
		t.Fatalf("log missing fault header:\n%s", buf.String()[:200])
	}
	back, err := readLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Spec.Fault != spec.Fault.Normalized() {
		t.Fatalf("fault after round trip: %+v, want %+v", back.Spec.Fault, spec.Fault.Normalized())
	}
	sameRecords(t, back.Records, camp.Records)

	// Transient logs are unchanged — no #fault line at all.
	spec.Fault = bitflip.Fault{}
	camp2, err := Run(context.Background(), &toyTarget{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteLog(&buf, camp2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "#fault") {
		t.Error("transient log contains a #fault header")
	}
}

// TestDatasetFaultAttrs: the ARFF conversion appends the fault-model
// features exactly when the campaign is non-transient.
func TestDatasetFaultAttrs(t *testing.T) {
	spec := toySpec()
	camp, err := Run(context.Background(), &toyTarget{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ToDataset(camp)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range d.Attrs {
		if strings.HasPrefix(a.Name, "fault_") {
			t.Fatalf("transient dataset has fault attribute %q", a.Name)
		}
	}

	spec.Fault = bitflip.Fault{Model: bitflip.Burst, Width: 5}
	camp2, err := Run(context.Background(), &toyTarget{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ToDataset(camp2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Attrs) != len(d.Attrs)+3 {
		t.Fatalf("burst dataset has %d attrs, want %d+3", len(d2.Attrs), len(d.Attrs))
	}
	want := map[string]float64{"fault_model": float64(bitflip.Burst), "fault_width": 5, "fault_persist": 1}
	found := 0
	for i, a := range d2.Attrs {
		v, ok := want[a.Name]
		if !ok {
			continue
		}
		found++
		for r, inst := range d2.Instances {
			if got := inst.Values[i]; got != v {
				t.Fatalf("instance %d: %s = %v, want %v", r, a.Name, got, v)
			}
		}
	}
	if found != 3 {
		t.Fatalf("found %d fault attributes, want 3", found)
	}
}
