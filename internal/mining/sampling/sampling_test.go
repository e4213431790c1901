package sampling

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// imbalanced builds a dataset with nNeg negatives (class 0) clustered
// near the origin and nPos positives (class 1) on a line, mirroring
// fault-injection imbalance.
func imbalanced(nNeg, nPos int, seed uint64) *dataset.Dataset {
	d := dataset.New("imb", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
		dataset.NumericAttr("m"),
	}, []string{"neg", "pos"})
	rng := stats.NewRNG(seed)
	for i := 0; i < nNeg; i++ {
		d.MustAdd(dataset.Instance{
			Values: []float64{rng.Float64(), rng.Float64(), float64(rng.Intn(2))},
			Class:  0, Weight: 1,
		})
	}
	for i := 0; i < nPos; i++ {
		base := 10 + rng.Float64()
		d.MustAdd(dataset.Instance{
			Values: []float64{base, base * 2, float64(rng.Intn(2))},
			Class:  1, Weight: 1,
		})
	}
	return d
}

func classCounts(d *dataset.Dataset) (neg, pos int) {
	for i := range d.Instances {
		if d.Instances[i].Class == 0 {
			neg++
		} else {
			pos++
		}
	}
	return neg, pos
}

// materialized returns a function building the training set a view
// describes, failing the test on a transform error.
func materialized(t *testing.T) func(*dataset.View, error) *dataset.Dataset {
	return func(v *dataset.View, err error) *dataset.Dataset {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v.Materialize()
	}
}

func store(d *dataset.Dataset) *dataset.Store { return dataset.NewStore(d, nil) }

func TestUndersample(t *testing.T) {
	d := imbalanced(100, 10, 1)
	out := materialized(t)(UndersampleView(store(d), 0, 30, stats.NewRNG(1)))
	neg, pos := classCounts(out)
	if neg != 30 {
		t.Errorf("negatives = %d, want 30", neg)
	}
	if pos != 10 {
		t.Errorf("positives = %d, want all 10 kept", pos)
	}
}

func TestUndersampleKeepsAtLeastOne(t *testing.T) {
	d := imbalanced(10, 2, 2)
	out := materialized(t)(UndersampleView(store(d), 0, 1, stats.NewRNG(1)))
	neg, _ := classCounts(out)
	if neg < 1 {
		t.Errorf("negatives = %d, want >= 1", neg)
	}
}

func TestUndersampleErrors(t *testing.T) {
	st := store(imbalanced(10, 2, 3))
	if _, err := UndersampleView(st, 0, 0, stats.NewRNG(1)); !errors.Is(err, ErrBadPercent) {
		t.Errorf("percent 0: %v", err)
	}
	if _, err := UndersampleView(st, 0, 101, stats.NewRNG(1)); !errors.Is(err, ErrBadPercent) {
		t.Errorf("percent 101: %v", err)
	}
	if _, err := UndersampleView(st, 5, 50, stats.NewRNG(1)); err == nil {
		t.Error("bad class should fail")
	}
}

func TestOversample(t *testing.T) {
	d := imbalanced(100, 10, 4)
	out := materialized(t)(OversampleView(store(d), 1, 300, stats.NewRNG(1)))
	neg, pos := classCounts(out)
	if neg != 100 {
		t.Errorf("negatives = %d, want untouched 100", neg)
	}
	if pos != 40 { // 10 originals + 300% = 30 copies
		t.Errorf("positives = %d, want 40", pos)
	}
	// Replacement copies are exact duplicates of existing positives.
	seen := map[float64]bool{}
	for i := range d.Instances {
		if d.Instances[i].Class == 1 {
			seen[d.Instances[i].Values[0]] = true
		}
	}
	for i := range out.Instances {
		if out.Instances[i].Class == 1 && !seen[out.Instances[i].Values[0]] {
			t.Fatal("oversampling invented a new value; expected replacement copies")
		}
	}
}

func TestSMOTECounts(t *testing.T) {
	d := imbalanced(100, 10, 5)
	out := materialized(t)(SMOTEView(store(d), 1, 500, 3, stats.NewRNG(1)))
	_, pos := classCounts(out)
	if pos != 60 { // 10 + 500%
		t.Errorf("positives = %d, want 60", pos)
	}
}

func TestSMOTESyntheticsInterpolate(t *testing.T) {
	// Positives lie on the line y = 2x; synthetic instances must stay
	// on the segment between a seed and a neighbour — hence on the line.
	d := imbalanced(50, 12, 6)
	out := materialized(t)(SMOTEView(store(d), 1, 400, 5, stats.NewRNG(2)))
	for i := d.Len(); i < out.Len(); i++ {
		in := out.Instances[i]
		if in.Class != 1 {
			t.Fatal("synthetic instance with wrong class")
		}
		x, y := in.Values[0], in.Values[1]
		if math.Abs(y-2*x) > 1e-9 {
			t.Fatalf("synthetic (%v, %v) off the positive manifold", x, y)
		}
		if x < 10 || x > 11 {
			t.Fatalf("synthetic x=%v outside the convex hull of positives", x)
		}
		// The 0/1 code interpolates within its range.
		if m := in.Values[2]; m < 0 || m > 1 {
			t.Fatalf("synthetic m = %v outside [0, 1]", m)
		}
	}
}

func TestSMOTEUnderHundredPercent(t *testing.T) {
	d := imbalanced(50, 20, 7)
	out := materialized(t)(SMOTEView(store(d), 1, 50, 3, stats.NewRNG(3)))
	_, pos := classCounts(out)
	if pos != 30 { // 20 + 50% of 20
		t.Errorf("positives = %d, want 30", pos)
	}
}

// Below 100% the seeds are the first rows of a shuffle of the minority
// rows, in shuffled order.
func TestPlanSmoteSubsetIsShuffledRows(t *testing.T) {
	minIdx := []int{3, 4, 9, 10, 11, 17, 20, 26, 31, 40}
	specs, err := planSmote(minIdx, nil, 0, 60, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	rows := append([]int(nil), minIdx...)
	stats.NewRNG(11).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if len(specs) != 6 {
		t.Fatalf("%d seeds, want 6", len(specs))
	}
	for i, sp := range specs {
		if got := minIdx[sp.seedPos]; got != rows[i] {
			t.Fatalf("seed %d is row %d, want %d", i, got, rows[i])
		}
	}
}

func TestSMOTEErrors(t *testing.T) {
	st := store(imbalanced(50, 5, 8))
	if _, err := SMOTEView(st, 1, 100, 0, stats.NewRNG(1)); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := SMOTEView(st, 1, -5, 3, stats.NewRNG(1)); !errors.Is(err, ErrBadPercent) {
		t.Errorf("percent<0: %v", err)
	}
	empty := store(imbalanced(50, 0, 9))
	if _, err := SMOTEView(empty, 1, 100, 3, stats.NewRNG(1)); !errors.Is(err, ErrNoMinority) {
		t.Errorf("no minority: %v", err)
	}
}

func TestSMOTESingleMinorityInstance(t *testing.T) {
	// With one positive there are no neighbours: SMOTE degrades to
	// replacement copies rather than failing.
	d := imbalanced(20, 1, 10)
	out := materialized(t)(SMOTEView(store(d), 1, 300, 5, stats.NewRNG(1)))
	_, pos := classCounts(out)
	if pos != 4 {
		t.Errorf("positives = %d, want 4", pos)
	}
}

func TestSamplingDoesNotMutateInput(t *testing.T) {
	d := imbalanced(30, 6, 11)
	before := cloneDataset(d)
	st := store(d)
	if _, err := SMOTEView(st, 1, 200, 3, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := OversampleView(st, 1, 200, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := UndersampleView(st, 0, 50, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if d.Len() != before.Len() || len(st.Classes()) != before.Len() {
		t.Fatal("input mutated")
	}
	cols := st.Cols()
	for i := range d.Instances {
		for j := range d.Instances[i].Values {
			if d.Instances[i].Values[j] != before.Instances[i].Values[j] || cols[j][i] != before.Instances[i].Values[j] {
				t.Fatal("input values mutated")
			}
		}
	}
}

func TestSamplingDeterminism(t *testing.T) {
	st := store(imbalanced(60, 12, 12))
	a := materialized(t)(SMOTEView(st, 1, 300, 4, stats.NewRNG(42)))
	b := materialized(t)(SMOTEView(st, 1, 300, 4, stats.NewRNG(42)))
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Instances {
		for j := range a.Instances[i].Values {
			if a.Instances[i].Values[j] != b.Instances[i].Values[j] {
				t.Fatal("same-seed SMOTE differs")
			}
		}
	}
}

func TestSMOTEProperty(t *testing.T) {
	// Output size always equals input + round(pos * pct/100).
	f := func(seed uint64, posRaw, pctRaw uint8) bool {
		nPos := int(posRaw%20) + 2
		pct := float64(int(pctRaw)%900 + 10)
		d := imbalanced(30, nPos, seed)
		out, err := SMOTEView(store(d), 1, pct, 3, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		want := d.Len() + int(math.Round(float64(nPos)*pct/100))
		return out.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNeighborIndexMatchesDirectSMOTE(t *testing.T) {
	st := store(imbalanced(80, 15, 13))
	ni, err := BuildViewIndex(st, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := materialized(t)(ni.SMOTEView(300, 5, stats.NewRNG(7)))
	b := materialized(t)(SMOTEView(st, 1, 300, 5, stats.NewRNG(7)))
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Instances {
		for j := range a.Instances[i].Values {
			if a.Instances[i].Values[j] != b.Instances[i].Values[j] {
				t.Fatal("cached and direct SMOTE disagree")
			}
		}
	}
}

func TestNeighborIndexKBounds(t *testing.T) {
	st := store(imbalanced(20, 6, 14))
	ni, err := BuildViewIndex(st, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ni.SMOTEView(100, 4, stats.NewRNG(1)); !errors.Is(err, ErrBadK) {
		t.Errorf("k beyond index: %v", err)
	}
	if _, err := ni.SMOTEView(100, 0, stats.NewRNG(1)); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := BuildViewIndex(st, 1, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("maxK=0: %v", err)
	}
	if _, err := BuildViewIndex(st, 9, 3); err == nil {
		t.Error("bad class should fail")
	}
}

func TestNeighborIndexOversample(t *testing.T) {
	ni, err := BuildViewIndex(store(imbalanced(40, 8, 15)), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := materialized(t)(ni.OversampleView(200, stats.NewRNG(5)))
	_, pos := classCounts(out)
	if pos != 24 {
		t.Errorf("positives = %d, want 24", pos)
	}
}

func TestNearestNeighborsAreNearest(t *testing.T) {
	// Three tight positive clusters: neighbours must come from the same
	// cluster.
	d := dataset.New("c", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"neg", "pos"})
	d.MustAdd(dataset.Instance{Values: []float64{500}, Class: 0, Weight: 1})
	centers := []float64{0, 100, 200}
	for _, c := range centers {
		for k := 0; k < 3; k++ {
			d.MustAdd(dataset.Instance{Values: []float64{c + float64(k)}, Class: 1, Weight: 1})
		}
	}
	st := store(d)
	minIdx, err := storeMinority(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := st.Cols()[0]
	lists := nearestNeighborsAt(st, minIdx, 2)
	for i, nn := range lists {
		self := x[minIdx[i]]
		for _, j := range nn {
			if math.Abs(x[j]-self) > 5 {
				t.Fatalf("neighbour of %v is %v: wrong cluster", self, x[j])
			}
		}
	}
}
