package tree

import (
	"errors"
	"math"
	"strings"
	"testing"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// andDataset: class = (x>0.5) AND (y>0.5); requires a depth-2 tree but,
// unlike XOR, leaves marginal gain for C4.5's greedy root split.
func andDataset(n int, seed uint64) *dataset.Dataset {
	d := dataset.New("and", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
	}, []string{"no", "yes"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		class := 0
		if x > 0.5 && y > 0.5 {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, y}, Class: class, Weight: 1})
	}
	return d
}

// thresholdDataset: class = x > cut, with a noisy distractor attribute.
func thresholdDataset(n int, cut float64, seed uint64) *dataset.Dataset {
	d := dataset.New("thr", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("noise"),
	}, []string{"lo", "hi"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x := rng.Float64()
		class := 0
		if x > cut {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, rng.Float64()}, Class: class, Weight: 1})
	}
	return d
}

// weatherDataset is the classic play-tennis set from Quinlan, each
// attribute coded as a number: outlook sunny 0, overcast 1, rainy 2;
// temperature hot 0, mild 1, cool 2; humidity high 0, normal 1; windy
// false 0, true 1.
func weatherDataset() *dataset.Dataset {
	d := dataset.New("weather", []dataset.Attribute{
		dataset.NumericAttr("outlook"),
		dataset.NumericAttr("temperature"),
		dataset.NumericAttr("humidity"),
		dataset.NumericAttr("windy"),
	}, []string{"no", "yes"})
	rows := []struct {
		o, te, h, w float64
		class       int
	}{
		{0, 0, 0, 0, 0}, {0, 0, 0, 1, 0}, {1, 0, 0, 0, 1}, {2, 1, 0, 0, 1},
		{2, 2, 1, 0, 1}, {2, 2, 1, 1, 0}, {1, 2, 1, 1, 1}, {0, 1, 0, 0, 0},
		{0, 2, 1, 0, 1}, {2, 1, 1, 0, 1}, {0, 1, 1, 1, 1}, {1, 1, 0, 1, 1},
		{1, 0, 1, 0, 1}, {2, 1, 0, 1, 0},
	}
	for _, r := range rows {
		d.MustAdd(dataset.Instance{Values: []float64{r.o, r.te, r.h, r.w}, Class: r.class, Weight: 1})
	}
	return d
}

// growTree is FitTree without the pruning pass: d's unpruned tree.
func growTree(t *testing.T, d *dataset.Dataset) *Tree {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	v := dataset.NewStore(d, nil).IdentityView()
	return &Tree{Root: grow(v, new(buildScratch)), Attrs: v.Attrs(), ClassValues: v.ClassValues()}
}

func resubAccuracy(t *testing.T, model *Tree, d *dataset.Dataset) float64 {
	t.Helper()
	correct := 0
	for i := range d.Instances {
		if model.Classify(d.Instances[i].Values) == d.Instances[i].Class {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

func TestFitThreshold(t *testing.T) {
	d := thresholdDataset(400, 0.37, 1)
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if acc := resubAccuracy(t, model, d); acc < 0.995 {
		t.Errorf("resubstitution accuracy %.3f on separable data", acc)
	}
	// The root should split on x near the cut, not on noise.
	if model.Root.IsLeaf() {
		t.Fatal("tree degenerated to a leaf")
	}
	if model.Root.Attr != 0 {
		t.Errorf("root splits on attr %d, want x(0)", model.Root.Attr)
	}
	if model.Root.Threshold < 0.3 || model.Root.Threshold > 0.45 {
		t.Errorf("root threshold %.3f not near 0.37", model.Root.Threshold)
	}
}

func TestFitInteraction(t *testing.T) {
	d := andDataset(800, 2)
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if acc := resubAccuracy(t, model, d); acc < 0.97 {
		t.Errorf("AND accuracy %.3f", acc)
	}
	if model.Depth() < 2 {
		t.Errorf("AND needs depth >= 2, got %d", model.Depth())
	}
}

func TestFitXORIsMyopic(t *testing.T) {
	// Balanced XOR has no marginal gain at the root: C4.5's greedy
	// search degenerates to the majority leaf — the documented myopia
	// of single-attribute split selection.
	d := dataset.New("xor", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
	}, []string{"no", "yes"})
	rng := stats.NewRNG(2)
	for i := 0; i < 800; i++ {
		x, y := rng.Float64(), rng.Float64()
		class := 0
		if (x > 0.5) != (y > 0.5) {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, y}, Class: class, Weight: 1})
	}
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Root.IsLeaf() {
		t.Logf("note: sampling noise gave XOR a root split (size %d)", model.Size())
	}
}

// TestFitWeather fits Quinlan's weather data with binary cuts on the
// coded attributes: the root splits on humidity, under it a cut on
// outlook isolates the sunny days (all no), and the unpruned tree
// classifies every day right but two, each in a leaf of fewer than
// 2*minLeaf rows that the minLeaf gate keeps from splitting.
func TestFitWeather(t *testing.T) {
	d := weatherDataset()
	model := growTree(t, d)
	if model.Root.IsLeaf() || model.Root.Attr != 2 {
		t.Fatalf("root attr = %d, want humidity(2)", model.Root.Attr)
	}
	sunny := model.Root.Children[0].Children[0]
	if model.Root.Children[0].Attr != 0 || !sunny.IsLeaf() || sunny.Class != 0 {
		t.Errorf("high humidity should split on outlook into a pure sunny no leaf")
	}
	if acc := resubAccuracy(t, model, d); acc != 12.0/14 {
		t.Errorf("unpruned weather accuracy = %.3f, want 12/14\n%s", acc, model)
	}
}

func TestPureDatasetIsLeaf(t *testing.T) {
	d := dataset.New("pure", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"a", "b"})
	for i := 0; i < 10; i++ {
		d.MustAdd(dataset.Instance{Values: []float64{float64(i)}, Class: 1, Weight: 1})
	}
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Root.IsLeaf() || model.Root.Class != 1 || model.Size() != 1 {
		t.Fatalf("pure data should yield a single leaf, got size %d", model.Size())
	}
}

func TestEmptyTraining(t *testing.T) {
	d := dataset.New("e", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"a", "b"})
	if _, err := (Learner{}).FitTree(d); !errors.Is(err, ErrEmptyTraining) {
		t.Fatalf("err = %v", err)
	}
}

// TestMinLeaf: in the unpruned trees of noisy data and of the weather
// data, every split gives each child at least minLeaf rows, and the
// gate binds: some split leaves a child of exactly minLeaf rows, and
// some impure node too light to give both children minLeaf rows stays
// a leaf.
func TestMinLeaf(t *testing.T) {
	noisy := thresholdDataset(300, 0.5, 5)
	rng := stats.NewRNG(6)
	for i := range noisy.Instances {
		if rng.Float64() < 0.2 {
			noisy.Instances[i].Class = 1 - noisy.Instances[i].Class
		}
	}
	atGate, light := false, false
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			if w := sum(n.Dist); w < 2*minLeaf && !isPure(n.Dist) {
				light = true
			}
			return
		}
		for _, ch := range n.Children {
			w := sum(ch.Dist)
			if w < minLeaf {
				t.Fatalf("split on attr %d at %v leaves a child of %v rows", n.Attr, n.Threshold, w)
			}
			atGate = atGate || w == minLeaf
			walk(ch)
		}
	}
	for _, d := range []*dataset.Dataset{noisy, weatherDataset()} {
		walk(growTree(t, d).Root)
	}
	if !atGate || !light {
		t.Errorf("gate never binds: child of exactly minLeaf rows %v, impure leaf below 2*minLeaf rows %v", atGate, light)
	}
}

func TestPruningShrinksNoisyTrees(t *testing.T) {
	// Noisy labels: pruning should remove spurious structure.
	d := thresholdDataset(500, 0.5, 7)
	rng := stats.NewRNG(8)
	for i := range d.Instances {
		if rng.Float64() < 0.15 {
			d.Instances[i].Class = 1 - d.Instances[i].Class
		}
	}
	unpruned := growTree(t, d)
	pruned, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Size() >= unpruned.Size() {
		t.Errorf("pruned %d >= unpruned %d", pruned.Size(), unpruned.Size())
	}
}

func TestSizeLeavesDepthConsistency(t *testing.T) {
	d := andDataset(300, 9)
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	// A binary-split tree with L leaves has L-1 internal nodes.
	if model.Size() != 2*model.Leaves()-1 {
		t.Errorf("size %d, leaves %d: inconsistent for binary tree", model.Size(), model.Leaves())
	}
}

// TestClassifyIsLeafArgmax: Classify descends to one leaf and returns
// the argmax of its training distribution, ties to the lower class, or
// the leaf's Class when the distribution is empty.
func TestClassifyIsLeafArgmax(t *testing.T) {
	d := andDataset(300, 10)
	model := growTree(t, d)
	for i := range d.Instances {
		vs := d.Instances[i].Values
		n := model.Root
		for !n.IsLeaf() {
			if vs[n.Attr] <= n.Threshold {
				n = n.Children[0]
			} else {
				n = n.Children[1]
			}
		}
		if got, want := model.Classify(vs), argmax(n.Dist); got != want {
			t.Fatalf("instance %d: Classify %d, leaf argmax %d", i, got, want)
		}
	}
	leaf := func(class int, dist ...float64) *Node { return &Node{Attr: -1, Class: class, Dist: dist} }
	hand := &Tree{
		Attrs:       []dataset.Attribute{dataset.NumericAttr("x")},
		ClassValues: []string{"a", "b", "c"},
		Root: &Node{Attr: 0, Threshold: 0, Children: []*Node{
			leaf(2, 0, 0, 0), // empty: its Class
			leaf(2, 1, 3, 3), // tie: the lower class
		}},
	}
	if got := hand.Classify([]float64{-1}); got != 2 {
		t.Errorf("empty leaf: class %d, want its Class 2", got)
	}
	if got := hand.Classify([]float64{1}); got != 1 {
		t.Errorf("tied leaf: class %d, want the lower class 1", got)
	}
}

// A NaN value (which no training row holds) fails the <= test and
// takes the > branch to one leaf; classification still returns a valid
// class.
func TestClassifyMissingValue(t *testing.T) {
	d := thresholdDataset(300, 0.5, 11)
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if model.Root.IsLeaf() {
		t.Fatal("tree degenerated to a leaf")
	}
	got := model.Classify([]float64{math.NaN(), 0.5})
	if want := model.Classify([]float64{math.Inf(1), 0.5}); got != want {
		t.Fatalf("NaN class %d, want the +Inf class %d", got, want)
	}
}

// The training domain has no missing values: FitTree refuses a dataset
// that holds NaN, here written past Add, with dataset.ErrNaN.
func TestFitWithMissingValues(t *testing.T) {
	d := thresholdDataset(400, 0.5, 12)
	d.Instances[7].Values[1] = math.NaN()
	if _, err := (Learner{}).FitTree(d); !errors.Is(err, dataset.ErrNaN) {
		t.Fatalf("FitTree on NaN data: err = %v, want dataset.ErrNaN", err)
	}
	if err := d.Add(dataset.Instance{Values: []float64{math.NaN(), 0}, Class: 0}); !errors.Is(err, dataset.ErrNaN) {
		t.Fatalf("Add of a NaN row: err = %v, want dataset.ErrNaN", err)
	}
}

func TestStringRendering(t *testing.T) {
	d := weatherDataset()
	s := growTree(t, d).String()
	for _, want := range []string{"outlook <= 0", "outlook > 0", ": yes", ": no"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	// Numeric rendering.
	dn := thresholdDataset(100, 0.5, 1)
	mn, _ := Learner{}.FitTree(dn)
	sn := mn.String()
	if !strings.Contains(sn, "x <=") || !strings.Contains(sn, "x >") {
		t.Errorf("numeric rendering:\n%s", sn)
	}
}

// Every training row weighs 1: Add refuses a heavier row, and FitTree
// refuses one written past Add, with dataset.ErrWeight.
func TestWeightedInstances(t *testing.T) {
	d := dataset.New("w", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"a", "b"})
	for i := 0; i < 10; i++ {
		d.MustAdd(dataset.Instance{Values: []float64{0.5}, Class: 0, Weight: 1})
	}
	if err := d.Add(dataset.Instance{Values: []float64{0.5}, Class: 1, Weight: 100}); !errors.Is(err, dataset.ErrWeight) {
		t.Fatalf("Add of weight 100: err = %v, want dataset.ErrWeight", err)
	}
	d.Instances[3].Weight = 100
	if _, err := (Learner{}).FitTree(d); !errors.Is(err, dataset.ErrWeight) {
		t.Fatalf("FitTree on a weight-100 row: err = %v, want dataset.ErrWeight", err)
	}
}

// TestGainRatioVsPlainGain: a cut isolating a small pure group (b) has
// less gain than a balanced, noisy cut (a) but a higher gain ratio, and
// a weak third attribute (c) keeps b above the average-gain gate. The
// root splits on b, where plain gain would pick a.
func TestGainRatioVsPlainGain(t *testing.T) {
	d := dataset.New("gr", []dataset.Attribute{
		dataset.NumericAttr("a"),
		dataset.NumericAttr("b"),
		dataset.NumericAttr("c"),
	}, []string{"neg", "pos"})
	for i := 0; i < 100; i++ {
		pos := (i >= 50) != (i%5 == 0)
		class, b, c := 0, 0.0, 0.0
		if pos {
			class = 1
		}
		if pos && i > 50 && i < 80 && i%2 == 1 {
			b = 1
		}
		if i < 8 {
			c = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{float64(i), b, c}, Class: class, Weight: 1})
	}
	if root := growTree(t, d).Root; root.Attr != 1 {
		t.Errorf("gain ratio root = attr %d, want b(1)", root.Attr)
	}
	v := dataset.NewStore(d, nil).IdentityView()
	fb := newViewBuilder(v, new(buildScratch))
	if fb.bestSplit(fb.root(v), v.Rows()) == nil {
		t.Fatal("no root split")
	}
	gain := map[int]float64{}
	for _, s := range fb.splitBuf {
		gain[s.attr] = s.gain
	}
	if gain[0] <= gain[1] {
		t.Errorf("gain of a %v, of b %v: plain gain must prefer a", gain[0], gain[1])
	}
}

func TestImportanceSumsToOne(t *testing.T) {
	d := andDataset(400, 12)
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	scores := model.Importance()
	if len(scores) != len(d.Attrs) {
		t.Fatalf("scores = %d", len(scores))
	}
	total := 0.0
	for _, s := range scores {
		if s < 0 {
			t.Fatalf("negative importance %v", s)
		}
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("importance sums to %v", total)
	}
}

func TestImportancePicksSignal(t *testing.T) {
	// Threshold concept on x with a pure-noise distractor: x must carry
	// (almost) all the importance.
	d := thresholdDataset(500, 0.5, 13)
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	scores := model.Importance()
	if scores[0] < 0.8 {
		t.Errorf("signal attribute importance = %v", scores[0])
	}
	rendered := model.FormatImportance()
	if !strings.Contains(rendered, "x") {
		t.Errorf("rendering: %q", rendered)
	}
}

func TestImportanceLeafOnlyTree(t *testing.T) {
	d := dataset.New("pure", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"a", "b"})
	for i := 0; i < 5; i++ {
		d.MustAdd(dataset.Instance{Values: []float64{1}, Class: 0, Weight: 1})
	}
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range model.Importance() {
		if s != 0 {
			t.Fatal("leaf-only tree should have zero importances")
		}
	}
}
