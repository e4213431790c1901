package predicate

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"edem/internal/dataset"
	"edem/internal/mining/tree"
	"edem/internal/stats"
)

func trainTree(t testing.TB, n int, seed uint64) (*tree.Tree, *dataset.Dataset) {
	t.Helper()
	d := dataset.New("train", []dataset.Attribute{
		dataset.NumericAttr("a"),
		dataset.NumericAttr("b"),
		dataset.NumericAttr("mode"),
	}, []string{"nonfailure", "failure"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		mode := rng.Intn(3)
		class := 0
		if (a > 7 && mode == 1) || b > 9 {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{a, b, float64(mode)}, Class: class, Weight: 1})
	}
	model, err := tree.Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	return model, d
}

// TestPredicateMatchesTree is the core extraction property: for every
// training instance, the predicate fires exactly when the tree predicts
// the positive class.
func TestPredicateMatchesTree(t *testing.T) {
	model, d := trainTree(t, 600, 1)
	pred, err := FromTree(model, 1, "demo")
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Instances {
		vs := d.Instances[i].Values
		if pred.Eval(vs) != (model.Classify(vs) == 1) {
			t.Fatalf("predicate and tree disagree on instance %d: %v", i, vs)
		}
	}
}

func TestPredicateMatchesTreeProperty(t *testing.T) {
	model, _ := trainTree(t, 400, 2)
	pred, err := FromTree(model, 1, "prop")
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint16, modeRaw uint8) bool {
		vs := []float64{
			float64(aRaw) / 65535 * 12,
			float64(bRaw) / 65535 * 12,
			float64(modeRaw % 3),
		}
		return pred.Eval(vs) == (model.Classify(vs) == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPredicateComplexity(t *testing.T) {
	model, _ := trainTree(t, 600, 3)
	pred, err := FromTree(model, 1, "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Clauses) == 0 {
		t.Fatal("no failure clauses extracted")
	}
	if pred.Complexity() < len(pred.Clauses) {
		t.Fatalf("complexity %d < clauses %d", pred.Complexity(), len(pred.Clauses))
	}
}

func TestFromTreeNil(t *testing.T) {
	if _, err := FromTree(nil, 1, "x"); err == nil {
		t.Fatal("nil tree should fail")
	}
}

func TestPredicateString(t *testing.T) {
	model, _ := trainTree(t, 500, 4)
	pred, err := FromTree(model, 1, "render")
	if err != nil {
		t.Fatal(err)
	}
	s := pred.String()
	if !strings.Contains(s, "render") || !strings.Contains(s, "flag erroneous iff") {
		t.Errorf("rendering: %s", s)
	}
	empty := &Predicate{Name: "none"}
	if !strings.Contains(empty.String(), "FALSE") {
		t.Error("empty predicate rendering")
	}
}

func TestPredicateJSONRoundTrip(t *testing.T) {
	model, d := trainTree(t, 500, 5)
	pred, err := FromTree(model, 1, "json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := pred.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != pred.Name || len(got.Clauses) != len(pred.Clauses) {
		t.Fatalf("round trip changed shape")
	}
	for i := range d.Instances {
		vs := d.Instances[i].Values
		if got.Eval(vs) != pred.Eval(vs) {
			t.Fatalf("parsed predicate disagrees on instance %d", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("{")); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := Parse([]byte(`{"clauses":[[{"op":"??"}]]}`)); err == nil {
		t.Error("bad operator should fail")
	}
}

// TestParseRefusesMisreadAtom checks that Parse refuses an atom that
// does not read the variable it names: evaluation reads by index, so
// the atom below would score targetDB while saying gainDB.
func TestParseRefusesMisreadAtom(t *testing.T) {
	parse := func(atom string) error {
		_, err := Parse([]byte(`{"name":"MG-B1","vars":["targetDB","gainDB","scale"],"clauses":[[` + atom + `]]}`))
		return err
	}
	err := parse(`{"var":"gainDB","index":0,"op":"<=","threshold":81}`)
	if want := `names "gainDB" but index 0 is "targetDB"`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Parse err = %v, want %q", err, want)
	}
	// A matching atom, and atoms indexing outside vars, which read
	// nothing and fail on every state, are accepted.
	for _, atom := range []string{
		`{"var":"gainDB","index":1,"op":"<=","threshold":81}`,
		`{"var":"gainDB","index":3,"op":"<=","threshold":81}`,
		`{"var":"gainDB","index":-1,"op":"<=","threshold":81}`,
	} {
		if err := parse(atom); err != nil {
			t.Errorf("%s refused: %v", atom, err)
		}
	}
	// A predicate with no vars names no positions to check against.
	if _, err := Parse([]byte(`{"name":"n","clauses":[[{"var":"x","index":0,"op":">","threshold":0}]]}`)); err != nil {
		t.Errorf("predicate without vars refused: %v", err)
	}
}

func TestAtomEval(t *testing.T) {
	for _, tt := range []struct {
		atom Atom
		val  float64
		want bool
	}{
		{Atom{Index: 0, Op: LE, Threshold: 5}, 5, true},
		{Atom{Index: 0, Op: LE, Threshold: 5}, 5.1, false},
		{Atom{Index: 0, Op: GT, Threshold: 5}, 5.1, true},
		{Atom{Index: 0, Op: GT, Threshold: 5}, 5, false},
		{Atom{Index: 0, Op: EQ, Threshold: 2}, 2, true},
		{Atom{Index: 0, Op: EQ, Threshold: 2}, 1, false},
		{Atom{Index: 0, Op: NE, Threshold: 2}, 1, true},
	} {
		if got := tt.atom.Eval([]float64{tt.val}); got != tt.want {
			t.Errorf("%v on %v = %v", tt.atom, tt.val, got)
		}
	}
	// NaN values and out-of-range indices never fire.
	if (Atom{Index: 0, Op: LE, Threshold: 5}).Eval([]float64{math.NaN()}) {
		t.Error("NaN value fired an atom")
	}
	if (Atom{Index: 3, Op: LE, Threshold: 5}).Eval([]float64{1}) {
		t.Error("out-of-range index fired an atom")
	}
	if (Atom{Index: 0, Op: Op(0), Threshold: 5}).Eval([]float64{1}) {
		t.Error("unknown operator fired")
	}
}

func TestSimplifyMergesBounds(t *testing.T) {
	// x <= 5 AND x <= 3 collapses to x <= 3.
	c, ok := simplify(Clause{
		{Var: "x", Index: 0, Op: LE, Threshold: 5},
		{Var: "x", Index: 0, Op: LE, Threshold: 3},
	})
	if !ok {
		t.Fatal("satisfiable clause dropped")
	}
	if len(c) != 1 || c[0].Threshold != 3 {
		t.Fatalf("merged clause = %v", c)
	}
	// Contradiction: x <= 2 AND x > 5.
	if _, ok := simplify(Clause{
		{Index: 0, Op: LE, Threshold: 2},
		{Index: 0, Op: GT, Threshold: 5},
	}); ok {
		t.Fatal("contradictory clause survived")
	}
	// Contradictory equalities.
	if _, ok := simplify(Clause{
		{Index: 0, Op: EQ, Threshold: 1},
		{Index: 0, Op: EQ, Threshold: 2},
	}); ok {
		t.Fatal("contradictory equalities survived")
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{LE: "<=", GT: ">", EQ: "=", NE: "!="} {
		if op.String() != want {
			t.Errorf("%d renders %q", op, op.String())
		}
	}
	if Op(9).String() != "Op(9)" {
		t.Error("unknown op rendering")
	}
}
