package predicate

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"edem/internal/propane"
	"edem/internal/stats"
)

// The differential equivalence suite: for every predicate family the
// pipeline can emit — tree-derived, range-check baselines
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
		{"prefix-clause", &Predicate{Name: "prefix", Vars: []string{"x", "y"},
			Clauses: []Clause{
				{{Var: "x", Index: 0, Op: GT, Threshold: 1}, {Var: "y", Index: 1, Op: LE, Threshold: 2}, {Var: "x", Index: 0, Op: LE, Threshold: 5}},
				{{Var: "x", Index: 0, Op: GT, Threshold: 1}, {Var: "y", Index: 1, Op: LE, Threshold: 2}},
				{{Var: "x", Index: 0, Op: GT, Threshold: 1}, {Var: "y", Index: 1, Op: GT, Threshold: 7}},
				{{Var: "x", Index: 0, Op: GT, Threshold: 1}},
				{{Var: "y", Index: 1, Op: EQ, Threshold: 3}, {Var: "x", Index: 0, Op: LE, Threshold: -1}},
			}}},
		{"duplicate-clauses", &Predicate{Name: "dup", Vars: []string{"x", "y"},
			Clauses: []Clause{
				{{Var: "x", Index: 0, Op: LE, Threshold: 4}, {Var: "y", Index: 1, Op: NE, Threshold: 0}},
				{{Var: "y", Index: 1, Op: GT, Threshold: 9}},
				{{Var: "x", Index: 0, Op: LE, Threshold: 4}, {Var: "y", Index: 1, Op: NE, Threshold: 0}},
				{{Var: "y", Index: 1, Op: GT, Threshold: 9}},
			}}},
		{"signed-zero-pair", &Predicate{Name: "zero-pair", Vars: []string{"x", "y"},
			Clauses: []Clause{
				{{Var: "x", Index: 0, Op: LE, Threshold: math.Copysign(0, -1)}, {Var: "y", Index: 1, Op: GT, Threshold: 1}},
				{{Var: "x", Index: 0, Op: LE, Threshold: 0}, {Var: "y", Index: 1, Op: LE, Threshold: -1}},
				{{Var: "x", Index: 0, Op: NE, Threshold: 0}, {Var: "y", Index: 1, Op: EQ, Threshold: 0}},
				{{Var: "x", Index: 0, Op: NE, Threshold: math.Copysign(0, -1)}, {Var: "y", Index: 1, Op: EQ, Threshold: 2}},
			}}},
		{"nan-thresholds", &Predicate{Name: "nan-prefix", Vars: []string{"x", "y"},
			Clauses: []Clause{
				{{Var: "x", Index: 0, Op: NE, Threshold: math.NaN()}, {Var: "y", Index: 1, Op: GT, Threshold: 0}},
				{{Var: "x", Index: 0, Op: NE, Threshold: math.NaN()}, {Var: "y", Index: 1, Op: LE, Threshold: math.Float64frombits(0x7ff8000000000002)}},
				{{Var: "x", Index: 0, Op: NE, Threshold: math.Float64frombits(0x7ff8000000000002)}, {Var: "y", Index: 1, Op: LE, Threshold: -3}},
				{{Var: "x", Index: 0, Op: EQ, Threshold: math.NaN()}},
			}}},
		{"empty-beside-atoms", &Predicate{Name: "vacuous-mixed", Vars: []string{"x"},
			Clauses: []Clause{
				{{Var: "x", Index: 0, Op: GT, Threshold: 3}},
				{},
				{{Var: "x", Index: 0, Op: LE, Threshold: 3}, {Var: "x", Index: 0, Op: NE, Threshold: 1}},
			}}},
		{"dead-beside-live", &Predicate{Name: "dead-live", Vars: []string{"x"},
			Clauses: []Clause{
				{{Var: "bad", Index: -2, Op: GT, Threshold: 1}},
				{{Var: "x", Index: 0, Op: EQ, Threshold: 3}},
			}}},
	} {
		t.Run(tt.name, func(t *testing.T) { assertEquivalent(t, tt.pred, 104) })
	}
}

// TestCompiledEquivalenceGoldenPredicates runs the differential suite
// over every predicate the pinned pipeline outputs hold: the shapes the
// learner really emits, with their shared leading atoms.
func TestCompiledEquivalenceGoldenPredicates(t *testing.T) {
	paths, err := filepath.Glob("../../cmd/edem/testdata/golden/run-*.pred.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 18 {
		t.Fatalf("found %d golden predicates, want at least 18", len(paths))
	}
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		t.Run(pred.Name, func(t *testing.T) {
			assertEquivalent(t, pred, 200+uint64(i))
			prog, _ := Compile(pred)
			t.Logf("%d atoms, %d nodes", prog.Atoms(), len(prog.nodes))
		})
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
// clauses with a common leading run share its nodes, a clause that
// extends a shorter one is pruned, and the table is the prefix tree in
// depth-first order with each node's skip just past its subtree.
func TestCompiledTableShape(t *testing.T) {
	x1 := Atom{Index: 0, Op: LE, Threshold: 1}
	y2 := Atom{Index: 1, Op: GT, Threshold: 2}
	y4 := Atom{Index: 1, Op: NE, Threshold: 4}
	x3 := Atom{Index: 0, Op: LE, Threshold: 3}
	pred := &Predicate{Name: "shape", Vars: []string{"x", "y"},
		Clauses: []Clause{
			{x1, y2},
			{{Index: -1, Op: GT, Threshold: 9}, x3}, // dead
			{y4},
			{x1, x3},
			{x1, y2, x3}, // extends {x1, y2}: pruned
			{y4, x1},     // extends {y4}: pruned
		}}
	prog, err := Compile(pred)
	if err != nil {
		t.Fatal(err)
	}
	// x1 ─┬─ y2      node 0: x1, skip 3
	//     └─ x3      node 1: y2, skip 2 (leaf)
	// y4             node 2: x3, skip 3 (leaf)
	//                node 3: y4, skip 4 (leaf)
	want := []node{
		{c: 1, idx: 0, op: opLE, skip: 3},
		{c: 2, idx: 1, op: opGT, skip: 2},
		{c: 3, idx: 0, op: opLE, skip: 3},
		{c: 4, idx: 1, op: opNE, skip: 4},
	}
	if !slices.Equal(prog.nodes, want) {
		t.Fatalf("nodes = %+v, want %+v", prog.nodes, want)
	}
	if prog.vacuous {
		t.Fatal("no live empty clause, yet the program is vacuous")
	}
	if prog.Atoms() != 10 {
		t.Fatalf("atoms = %d, want 10 (source atoms of the five live clauses)", prog.Atoms())
	}
	if prog.Arity != 2 {
		t.Fatalf("arity = %d, want 2", prog.Arity)
	}
	assertEquivalent(t, pred, 105)

	// Thresholds share a node only when their bits match: -0 and +0,
	// and NaNs with different payloads, stay apart.
	nan2 := math.Float64frombits(0x7ff8000000000002)
	split := &Predicate{Name: "bits", Vars: []string{"x", "y"},
		Clauses: []Clause{
			{{Index: 0, Op: EQ, Threshold: 0}, y2},
			{{Index: 0, Op: EQ, Threshold: math.Copysign(0, -1)}, y2},
			{{Index: 0, Op: NE, Threshold: math.NaN()}, y2},
			{{Index: 0, Op: NE, Threshold: nan2}, y2},
			{{Index: 0, Op: NE, Threshold: nan2}, y4},
		}}
	prog, err = Compile(split)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.nodes) != 9 {
		t.Fatalf("nodes = %d, want 9 (four roots, one shared)", len(prog.nodes))
	}
	assertEquivalent(t, split, 106)

	// A live empty clause fires everywhere and leaves no table.
	vac := &Predicate{Name: "vac", Vars: []string{"x"}, Clauses: []Clause{{x1}, {}}}
	if prog, err = Compile(vac); err != nil {
		t.Fatal(err)
	}
	if !prog.vacuous || len(prog.nodes) != 0 || prog.Atoms() != 1 {
		t.Fatalf("vacuous %v, %d nodes, %d atoms; want true, 0, 1", prog.vacuous, len(prog.nodes), prog.Atoms())
	}
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
