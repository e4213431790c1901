package predicate

import (
	"math"
	"testing"

	"edem/internal/mining/eval"
	"edem/internal/mining/rules"
	"edem/internal/propane"
	"edem/internal/stats"
)

// The differential equivalence suite: for every predicate family the
// pipeline can emit — tree-derived, rule-derived, range-check baselines
// and hand-built edge cases — the compiled program must agree with the
// interpreted Predicate.Eval on every input, including exhaustive
// boundary grids around every threshold (just below, exactly at, just
// above, ±Inf, NaN) and seeded random sweeps. This is the contract that
// lets the serving runtime swap the compiler in without a behavioural
// review: FastFlip-style, the cheap form is validated against the
// reference form cell by cell instead of being trusted.

// boundaryValues returns the probe values for one threshold: the exact
// constant, one ulp either side, and the global specials.
func boundaryValues(c float64) []float64 {
	vals := []float64{c}
	if !math.IsNaN(c) {
		vals = append(vals,
			math.Nextafter(c, math.Inf(-1)),
			math.Nextafter(c, math.Inf(1)),
		)
	}
	return append(vals,
		math.Inf(1), math.Inf(-1), math.NaN(),
		0, math.Copysign(0, -1), 1, -1,
	)
}

// assertEquivalent drives pred and its compiled form through boundary
// grids and seeded random samples and demands bit-identical verdicts.
func assertEquivalent(t *testing.T, pred *Predicate, seed uint64) {
	t.Helper()
	prog, err := Compile(pred)
	if err != nil {
		t.Fatalf("compile %s: %v", pred.Name, err)
	}
	arity := len(pred.Vars)
	check := func(vs []float64) {
		t.Helper()
		if got, want := prog.Eval(vs), pred.Eval(vs); got != want {
			t.Fatalf("%s: compiled=%v interpreted=%v on %v", pred.Name, got, want, vs)
		}
	}

	// Per-atom boundary sweeps: every atom's threshold probed at and
	// around its constant in that atom's own position, with every other
	// position at a neutral base and then at each special.
	base := make([]float64, arity)
	for _, c := range pred.Clauses {
		for _, a := range c {
			if a.Index < 0 || a.Index >= arity {
				continue
			}
			for _, fill := range []float64{0, 1, math.NaN(), math.Inf(1)} {
				vs := make([]float64, arity)
				for i := range vs {
					vs[i] = fill
				}
				for _, v := range boundaryValues(a.Threshold) {
					vs[a.Index] = v
					check(vs)
				}
			}
		}
	}
	check(base)

	// Cross-atom grid: pairs of atoms set to boundary values together
	// (clause conjunctions flip exactly at these corners).
	var atoms []Atom
	for _, c := range pred.Clauses {
		atoms = append(atoms, c...)
	}
	for i := 0; i < len(atoms) && i < 12; i++ {
		for j := i + 1; j < len(atoms) && j < 12; j++ {
			ai, aj := atoms[i], atoms[j]
			if ai.Index < 0 || ai.Index >= arity || aj.Index < 0 || aj.Index >= arity {
				continue
			}
			vs := make([]float64, arity)
			for _, vi := range boundaryValues(ai.Threshold) {
				for _, vj := range boundaryValues(aj.Threshold) {
					vs[ai.Index], vs[aj.Index] = vi, vj
					check(vs)
				}
			}
		}
	}

	// Seeded random sweep, including occasional NaN/Inf contamination
	// and wrong-arity vectors (shorter and longer than the predicate).
	rng := stats.NewRNG(seed)
	for n := 0; n < 3000; n++ {
		size := arity
		switch n % 10 {
		case 7:
			size = rng.Intn(arity + 1) // short vector
		case 9:
			size = arity + 1 + rng.Intn(3) // long vector
		}
		vs := make([]float64, size)
		for i := range vs {
			switch rng.Intn(12) {
			case 0:
				vs[i] = math.NaN()
			case 1:
				vs[i] = math.Inf(1)
			case 2:
				vs[i] = math.Inf(-1)
			default:
				vs[i] = (rng.Float64() - 0.5) * 200
			}
		}
		check(vs)
	}
}

func TestCompiledEquivalenceFromTree(t *testing.T) {
	model, _ := trainTree(t, 600, 11)
	pred, err := FromTree(model, 1, "tree-diff")
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Clauses) == 0 {
		t.Fatal("tree yielded no clauses")
	}
	assertEquivalent(t, pred, 101)
}

func TestCompiledEquivalenceFromRules(t *testing.T) {
	_, d := trainTree(t, 500, 12)
	model, err := (rules.PRISM{}).Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := model.(*rules.RuleSet)
	if !ok {
		t.Fatalf("unexpected model type %T", model)
	}
	vars := make([]string, len(d.Attrs))
	for i, a := range d.Attrs {
		vars[i] = a.Name
	}
	pred, err := FromRules(rs, eval.PositiveClass, vars, "rules-diff")
	if err != nil {
		t.Skipf("rule set not convertible: %v", err)
	}
	assertEquivalent(t, pred, 102)
}

func TestCompiledEquivalenceRangeCheck(t *testing.T) {
	pred, err := RangeCheck([]propane.VarProfile{
		{Var: "a", Min: -3, Max: 7.5, Samples: 40},
		{Var: "b", Min: 2, Max: 2, Samples: 40},     // constant variable
		{Var: "c", Min: 0, Max: 1e300, Samples: 40}, // huge span
		{Var: "d", Samples: 0},                      // never observed
	}, 0.2, "range-diff")
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, pred, 103)
}

// TestCompiledEquivalenceEdgeCases drives the hand-built shapes the
// learners cannot easily produce: empty predicates, vacuous clauses,
// NaN constants, NE atoms, out-of-range and negative indices.
func TestCompiledEquivalenceEdgeCases(t *testing.T) {
	for _, tt := range []struct {
		name string
		pred *Predicate
	}{
		{"empty-predicate", &Predicate{Name: "empty", Vars: []string{"x"}}},
		{"empty-clause", &Predicate{Name: "vacuous", Vars: []string{"x"},
			Clauses: []Clause{{}}}}, // zero atoms: always fires
		{"single-atom", &Predicate{Name: "single", Vars: []string{"x"},
			Clauses: []Clause{{{Var: "x", Index: 0, Op: GT, Threshold: 3.5}}}}},
		{"nan-constant", &Predicate{Name: "nan-const", Vars: []string{"x", "y"},
			Clauses: []Clause{
				{{Var: "x", Index: 0, Op: LE, Threshold: math.NaN()}},
				{{Var: "y", Index: 1, Op: NE, Threshold: math.NaN()}},
				{{Var: "y", Index: 1, Op: EQ, Threshold: math.NaN()}},
			}}},
		{"ne-atoms", &Predicate{Name: "ne", Vars: []string{"x", "y"},
			Clauses: []Clause{
				{{Var: "x", Index: 0, Op: NE, Threshold: 0}},
				{{Var: "y", Index: 1, Op: NE, Threshold: -1}, {Var: "x", Index: 0, Op: LE, Threshold: 10}},
			}}},
		{"inf-thresholds", &Predicate{Name: "inf", Vars: []string{"x"},
			Clauses: []Clause{
				{{Var: "x", Index: 0, Op: GT, Threshold: math.Inf(1)}},
				{{Var: "x", Index: 0, Op: LE, Threshold: math.Inf(-1)}},
			}}},
		{"index-past-arity", &Predicate{Name: "past", Vars: []string{"x"},
			Clauses: []Clause{
				{{Var: "ghost", Index: 5, Op: GT, Threshold: 1}},
				{{Var: "x", Index: 0, Op: GT, Threshold: 1}},
			}}},
		{"negative-index", &Predicate{Name: "neg", Vars: []string{"x"},
			Clauses: []Clause{
				{{Var: "bad", Index: -1, Op: GT, Threshold: 1}, {Var: "x", Index: 0, Op: LE, Threshold: 5}},
				{{Var: "x", Index: 0, Op: GT, Threshold: 7}},
			}}},
		{"signed-zero", &Predicate{Name: "zero", Vars: []string{"x"},
			Clauses: []Clause{
				{{Var: "x", Index: 0, Op: EQ, Threshold: math.Copysign(0, -1)}},
				{{Var: "x", Index: 0, Op: GT, Threshold: 0}},
			}}},
	} {
		t.Run(tt.name, func(t *testing.T) { assertEquivalent(t, tt.pred, 104) })
	}
}

// TestCompileRefusesUnknownOp pins the refusal rule: an operator the
// table cannot encode is a compile error, never a silent misencoding;
// NewDetector and bundle validation then refuse the predicate.
func TestCompileRefusesUnknownOp(t *testing.T) {
	pred := &Predicate{Name: "bad-op", Vars: []string{"x"},
		Clauses: []Clause{{{Var: "x", Index: 0, Op: Op(0), Threshold: 1}}}}
	if _, err := Compile(pred); err == nil {
		t.Fatal("unknown operator must refuse to compile")
	}
	if _, err := Compile(nil); err == nil {
		t.Fatal("nil predicate must refuse to compile")
	}
}

// TestCompiledTableShape pins the lowering itself: dead clauses vanish,
// live atoms stay in clause order.
func TestCompiledTableShape(t *testing.T) {
	pred := &Predicate{Name: "shape", Vars: []string{"x", "y"},
		Clauses: []Clause{
			{{Index: 0, Op: LE, Threshold: 1}, {Index: 1, Op: GT, Threshold: 2}},
			{{Index: -1, Op: GT, Threshold: 9}, {Index: 0, Op: LE, Threshold: 3}}, // dead
			{{Index: 1, Op: NE, Threshold: 4}},
		}}
	prog, err := Compile(pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.clauseEnds) != 2 {
		t.Fatalf("live clauses = %d, want 2 (dead clause dropped)", len(prog.clauseEnds))
	}
	if prog.Atoms() != 3 {
		t.Fatalf("atoms = %d, want 3", prog.Atoms())
	}
	if prog.Arity != 2 {
		t.Fatalf("arity = %d, want 2", prog.Arity)
	}
	assertEquivalent(t, pred, 105)
}

// TestCompiledEvalAllocFree pins the zero-allocation evaluation
// contract the serving hot path depends on.
func TestCompiledEvalAllocFree(t *testing.T) {
	model, d := trainTree(t, 600, 13)
	pred, err := FromTree(model, 1, "alloc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(pred)
	if err != nil {
		t.Fatal(err)
	}
	vs := d.Instances[0].Values
	if avg := testing.AllocsPerRun(200, func() { prog.Eval(vs) }); avg != 0 {
		t.Fatalf("compiled eval allocates %.1f allocs/op, want 0", avg)
	}
}

// benchProgram builds a learnt predicate of realistic shape for the
// eval benchmarks, plus a seeded sample stream.
func benchProgram(b *testing.B) (*Predicate, *Program, [][]float64) {
	b.Helper()
	model, _ := trainTree(b, 800, 21)
	pred, err := FromTree(model, 1, "bench")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(pred)
	if err != nil {
		b.Fatal(err)
	}
	samples := make([][]float64, 256)
	rng := stats.NewRNG(42)
	for i := range samples {
		vs := make([]float64, len(pred.Vars))
		for j := range vs {
			vs[j] = rng.Float64() * 12
		}
		samples[i] = vs
	}
	return pred, prog, samples
}

// BenchmarkCompiledEval measures the compiled threshold-program hot
// loop; BenchmarkInterpretedEval is the AST walk of the test oracle,
// the cost the compiled form saves on every runtime evaluation.
func BenchmarkCompiledEval(b *testing.B) {
	_, prog, samples := benchProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Eval(samples[i%len(samples)])
	}
}

func BenchmarkInterpretedEval(b *testing.B) {
	pred, _, samples := benchProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.Eval(samples[i%len(samples)])
	}
}
