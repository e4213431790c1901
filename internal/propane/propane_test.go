package propane

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"edem/internal/bitflip"
)

// toyTarget is a deterministic miniature system: module "M" activates
// Ticks times per run; variable "acc" accumulates, variable "gate"
// (int64, normally 7) controls the output, and "junk" is dead state.
// The run fails when the final output differs from the fault-free value.
type toyTarget struct {
	Ticks    int
	CrashOn  float64 // if acc exceeds this, the run panics (0 = never)
	FailHook func(gate int64) bool
}

type toyOutput struct{ Sum float64 }

func (tt *toyTarget) Name() string { return "Toy" }

func (tt *toyTarget) Modules() []ModuleInfo {
	return []ModuleInfo{{
		Name: "M",
		Vars: []VarDecl{
			{Name: "acc", Kind: bitflip.Float64},
			{Name: "gate", Kind: bitflip.Int64},
			{Name: "junk", Kind: bitflip.Float64},
		},
	}}
}

func (tt *toyTarget) TestCases(n int, seed uint64) []TestCase {
	tcs := make([]TestCase, n)
	for i := range tcs {
		tcs[i] = TestCase{ID: i, Seed: seed + uint64(i)}
	}
	return tcs
}

func (tt *toyTarget) Run(tc TestCase, probe Probe) (any, error) {
	var (
		acc  float64
		gate int64 = 7
		junk float64
	)
	vars := []VarRef{
		Float64Ref("acc", &acc),
		Int64Ref("gate", &gate),
		Float64Ref("junk", &junk),
	}
	ticks := tt.Ticks
	if ticks == 0 {
		ticks = 5
	}
	for i := 0; i < ticks; i++ {
		probe.Visit("M", Entry, vars)
		if tt.CrashOn > 0 && acc > tt.CrashOn {
			panic("toy target corrupted beyond recovery")
		}
		acc += float64(gate) * float64(tc.ID+1)
		junk = acc * 2 // dead: recomputed every activation
		probe.Visit("M", Exit, vars)
	}
	return toyOutput{Sum: acc}, nil
}

func (tt *toyTarget) Failed(_ TestCase, golden, observed any) bool {
	g, ok1 := golden.(toyOutput)
	o, ok2 := observed.(toyOutput)
	if !ok1 || !ok2 {
		return true
	}
	return g != o
}

var _ Target = (*toyTarget)(nil)

func toySpec() Spec {
	return Spec{
		Dataset:        "TOY-1",
		Module:         "M",
		InjectAt:       Entry,
		SampleAt:       Exit,
		InjectionTimes: []int{2, 4},
		TestCases:      3,
		Seed:           1,
		BitStride:      1,
	}
}

func TestSpecValidate(t *testing.T) {
	good := toySpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Dataset = "" },
		func(s *Spec) { s.Module = "" },
		func(s *Spec) { s.InjectAt = 0 },
		func(s *Spec) { s.SampleAt = 99 },
		func(s *Spec) { s.InjectionTimes = nil },
		func(s *Spec) { s.InjectionTimes = []int{0} },
		func(s *Spec) { s.TestCases = 0 },
		func(s *Spec) { s.BitStride = -1 },
	}
	for i, mutate := range bad {
		s := toySpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestBitPlan(t *testing.T) {
	if got := len(BitPlan(bitflip.Float64, 1)); got != 64 {
		t.Errorf("stride 1 covers %d bits, want 64", got)
	}
	if got := len(BitPlan(bitflip.Bool, 4)); got != 1 {
		t.Errorf("bool plan = %d bits, want 1", got)
	}
	plan := BitPlan(bitflip.Float64, 4)
	// Dense top: sign, exponent and top mantissa always present.
	for b := 48; b < 64; b++ {
		found := false
		for _, p := range plan {
			if p == b {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("bit %d missing from strided plan", b)
		}
	}
	// Strided low region.
	if plan[0] != 0 || plan[1] != 4 {
		t.Errorf("low region not strided: %v", plan[:2])
	}
	// No duplicates.
	seen := map[int]bool{}
	for _, b := range plan {
		if seen[b] {
			t.Errorf("duplicate bit %d", b)
		}
		seen[b] = true
	}
}

func TestRunCampaign(t *testing.T) {
	target := &toyTarget{}
	camp, err := Run(context.Background(), target, toySpec())
	if err != nil {
		t.Fatal(err)
	}
	// 3 test cases x (64+64+64) bits x 2 times.
	want := 3 * 192 * 2
	if len(camp.Records) != want {
		t.Fatalf("records = %d, want %d", len(camp.Records), want)
	}
	if camp.Target != "Toy" {
		t.Errorf("target = %q", camp.Target)
	}
	if len(camp.VarNames) != 3 || camp.VarNames[1] != "gate" {
		t.Errorf("var names = %v", camp.VarNames)
	}
	for i := range camp.Records {
		r := &camp.Records[i]
		if !r.Injected || !r.Sampled {
			t.Fatalf("record %d not injected/sampled: %+v", i, r)
		}
		if len(r.State) != 3 {
			t.Fatalf("record %d state arity %d", i, len(r.State))
		}
	}
	// acc and gate faults corrupt the sum; junk faults are dead.
	perVar := map[string][2]int{}
	for i := range camp.Records {
		r := &camp.Records[i]
		c := perVar[r.Var]
		c[0]++
		if r.Failure {
			c[1]++
		}
		perVar[r.Var] = c
	}
	if perVar["junk"][1] != 0 {
		t.Errorf("junk caused %d failures, want 0", perVar["junk"][1])
	}
	if perVar["gate"][1] == 0 || perVar["acc"][1] == 0 {
		t.Errorf("live variables caused no failures: %v", perVar)
	}
	if camp.Failures() == 0 || camp.Failures() == camp.Usable() {
		t.Errorf("degenerate failure count %d of %d", camp.Failures(), camp.Usable())
	}
}

func TestRunDeterminism(t *testing.T) {
	target := &toyTarget{}
	c1, err := Run(context.Background(), target, toySpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := toySpec()
	spec.Workers = 1
	c2, err := Run(context.Background(), target, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Records) != len(c2.Records) {
		t.Fatal("record counts differ across worker counts")
	}
	for i := range c1.Records {
		a, b := c1.Records[i], c2.Records[i]
		if a.Var != b.Var || a.Bit != b.Bit || a.Failure != b.Failure || a.TestCase != b.TestCase {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestRunHandlesPanics(t *testing.T) {
	target := &toyTarget{CrashOn: 1e6}
	camp, err := Run(context.Background(), target, toySpec())
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for i := range camp.Records {
		if camp.Records[i].Crashed {
			crashed++
			if !camp.Records[i].Failure {
				t.Fatal("crashed run must be a failure")
			}
		}
	}
	if crashed == 0 {
		t.Fatal("expected some corrupted runs to panic")
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	target := &toyTarget{Ticks: 100}
	if _, err := Run(ctx, target, toySpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunUnknownModule(t *testing.T) {
	spec := toySpec()
	spec.Module = "nope"
	if _, err := Run(context.Background(), &toyTarget{}, spec); !errors.Is(err, ErrModuleNotFound) {
		t.Fatalf("err = %v, want ErrModuleNotFound", err)
	}
}

func TestInjectionNotReached(t *testing.T) {
	spec := toySpec()
	spec.InjectionTimes = []int{1000} // toy target has 5 activations
	camp, err := Run(context.Background(), &toyTarget{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range camp.Records {
		r := &camp.Records[i]
		if r.Injected || r.Sampled || r.Failure {
			t.Fatalf("unreachable injection produced %+v", r)
		}
	}
	if camp.Usable() != 0 {
		t.Fatal("no record should be usable")
	}
}

func TestSampleSameLocation(t *testing.T) {
	// Entry/Entry sampling captures the state immediately after the
	// flip, in the same visit.
	spec := toySpec()
	spec.InjectAt, spec.SampleAt = Entry, Entry
	spec.InjectionTimes = []int{1}
	camp, err := Run(context.Background(), &toyTarget{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Find a gate-bit-0 record for test case 0: gate was 7, flip bit 0
	// gives 6; the entry sample must show the corrupted value.
	found := false
	for i := range camp.Records {
		r := &camp.Records[i]
		if r.Var == "gate" && r.Bit == 0 && r.TestCase == 0 {
			found = true
			if r.State[1] != 6 {
				t.Fatalf("sampled gate = %v, want 6", r.State[1])
			}
		}
	}
	if !found {
		t.Fatal("expected gate bit-0 record")
	}
}

func TestChainProbe(t *testing.T) {
	var log []string
	mk := func(name string) Probe {
		return probeFunc(func(module string, loc Location, _ []VarRef) {
			log = append(log, fmt.Sprintf("%s:%s:%s", name, module, loc))
		})
	}
	chain := Chain(mk("a"), mk("b"))
	chain.Visit("M", Entry, nil)
	if strings.Join(log, ",") != "a:M:Entry,b:M:Entry" {
		t.Fatalf("chain order: %v", log)
	}
}

type probeFunc func(string, Location, []VarRef)

func (f probeFunc) Visit(m string, l Location, v []VarRef) { f(m, l, v) }

func TestLocationString(t *testing.T) {
	if Entry.String() != "Entry" || Exit.String() != "Exit" {
		t.Fatal("location names")
	}
	if Location(9).String() != "Location(9)" {
		t.Fatal("unknown location rendering")
	}
}

// TestVarRefAdapters: each adapter reads its variable, and FlipBit
// turns known values into known values and refuses the first bits
// outside each kind's width, changing nothing.
func TestVarRefAdapters(t *testing.T) {
	var (
		f  = 1.5
		f1 = 1.0
		i  int64
		i2 int64 = 4
		g        = 2
		n  int32 = 1
		u  uint64
		b  bool
		f4 float32 = 1
	)
	for _, tt := range []struct {
		ref           VarRef
		bit           int
		before, after float64 // the values read around the flip
	}{
		{Float64Ref("f", &f), 63, 1.5, -1.5},
		{Float64Ref("f1", &f1), 52, 1, 0.5},
		{Int64Ref("i", &i), 63, 0, math.MinInt64},
		{Int64Ref("i2", &i2), 0, 4, 5},
		{IntRef("g", &g), 0, 2, 3},
		{Int32Ref("n", &n), 1, 1, 3},
		{Int32Ref("n", &n), 31, 3, math.MinInt32 + 3},
		{Uint64Ref("u", &u), 63, 0, 1 << 63},
		{BoolRef("b", &b), 0, 0, 1},
		{BoolRef("b", &b), 0, 1, 0},
		{Float32Ref("f4", &f4), 31, 1, -1},
	} {
		before := tt.ref.Read()
		if err := tt.ref.FlipBit(tt.bit); err != nil || before != tt.before || tt.ref.Read() != tt.after {
			t.Errorf("%s bit %d: read %v, FlipBit %v, then read %v; want %v then %v",
				tt.ref.Name, tt.bit, before, err, tt.ref.Read(), tt.before, tt.after)
		}
	}
	var badBit *bitflip.BadBitError
	for _, ref := range []VarRef{
		Float64Ref("f", &f), Float32Ref("f4", &f4), Int64Ref("i", &i),
		Int32Ref("n", &n), Uint64Ref("u", &u), BoolRef("b", &b),
	} {
		raw := ref.Bits()
		for _, bit := range []int{-1, ref.Kind.Bits()} {
			if err := ref.FlipBit(bit); !errors.As(err, &badBit) || badBit.Bit != bit || ref.Bits() != raw {
				t.Errorf("%v bit %d: FlipBit %v, bits %#x -> %#x; want a BadBitError and no change", ref.Kind, bit, err, raw, ref.Bits())
			}
		}
	}
}

func TestModuleLookup(t *testing.T) {
	if _, ok := Module(&toyTarget{}, "M"); !ok {
		t.Fatal("module M should exist")
	}
	if _, ok := Module(&toyTarget{}, "X"); ok {
		t.Fatal("module X should not exist")
	}
}
