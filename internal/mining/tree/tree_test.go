package tree

import (
	"errors"
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

// weatherDataset is the classic (nominal) play-tennis set from Quinlan.
func weatherDataset() *dataset.Dataset {
	d := dataset.New("weather", []dataset.Attribute{
		dataset.NominalAttr("outlook", "sunny", "overcast", "rainy"),
		dataset.NominalAttr("temperature", "hot", "mild", "cool"),
		dataset.NominalAttr("humidity", "high", "normal"),
		dataset.NominalAttr("windy", "false", "true"),
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

func TestFitWeather(t *testing.T) {
	d := weatherDataset()
	model, err := Learner{Config: Config{NoPrune: true}}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	// C4.5 famously splits the weather data on outlook first.
	if model.Root.IsLeaf() || model.Root.Attr != 0 {
		t.Errorf("root attr = %d, want outlook(0)", model.Root.Attr)
	}
	// The overcast branch is pure "yes".
	overcast := model.Root.Children[1]
	if !overcast.IsLeaf() || overcast.Class != 1 {
		t.Errorf("overcast branch should be a pure yes leaf")
	}
	if acc := resubAccuracy(t, model, d); acc != 1 {
		t.Errorf("unpruned weather accuracy = %.3f, want 1", acc)
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

func TestMaxDepth(t *testing.T) {
	d := andDataset(500, 3)
	model, err := Learner{Config: Config{MaxDepth: 1, NoPrune: true}}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if model.Depth() > 1 {
		t.Errorf("depth = %d, want <= 1", model.Depth())
	}
}

func TestMinLeaf(t *testing.T) {
	d := thresholdDataset(100, 0.5, 5)
	big, err := Learner{Config: Config{MinLeaf: 40, NoPrune: true}}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Learner{Config: Config{MinLeaf: 2, NoPrune: true}}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if big.Size() > small.Size() {
		t.Errorf("larger MinLeaf should not grow a bigger tree (%d vs %d)", big.Size(), small.Size())
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
	unpruned, err := Learner{Config: Config{NoPrune: true}}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
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

func TestDistributionSumsToOne(t *testing.T) {
	d := andDataset(300, 10)
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		dist := model.Distribution(d.Instances[i].Values)
		sum := 0.0
		for _, p := range dist {
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("distribution sums to %v", sum)
		}
	}
}

func TestClassifyMissingValue(t *testing.T) {
	d := thresholdDataset(300, 0.5, 11)
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	// Missing split value: classification must still return a valid
	// class via fractional descent.
	got := model.Classify([]float64{dataset.Missing, 0.5})
	if got != 0 && got != 1 {
		t.Fatalf("class = %d", got)
	}
}

func TestFitWithMissingValues(t *testing.T) {
	// The general (weighted) path handles missing values end to end.
	d := thresholdDataset(400, 0.5, 12)
	rng := stats.NewRNG(13)
	for i := range d.Instances {
		if rng.Float64() < 0.1 {
			d.Instances[i].Values[1] = dataset.Missing
		}
	}
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if acc := resubAccuracy(t, model, d); acc < 0.98 {
		t.Errorf("accuracy with missing distractor = %.3f", acc)
	}
	// Missing values on the split attribute itself.
	for i := 0; i < 40; i++ {
		d.Instances[i].Values[0] = dataset.Missing
	}
	model, err = Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if acc := resubAccuracy(t, model, d); acc < 0.85 {
		t.Errorf("accuracy with missing split attr = %.3f", acc)
	}
}

func TestStringRendering(t *testing.T) {
	d := weatherDataset()
	model, err := Learner{Config: Config{NoPrune: true}}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	s := model.String()
	for _, want := range []string{"outlook = sunny", "outlook = overcast", ": yes", ": no"} {
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

func TestWeightedInstances(t *testing.T) {
	// A heavily weighted minority flips the majority class.
	d := dataset.New("w", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"a", "b"})
	for i := 0; i < 10; i++ {
		d.MustAdd(dataset.Instance{Values: []float64{0.5}, Class: 0, Weight: 1})
	}
	d.MustAdd(dataset.Instance{Values: []float64{0.5}, Class: 1, Weight: 100})
	model, err := Learner{}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if model.Classify([]float64{0.5}) != 1 {
		t.Fatal("instance weights must drive the majority")
	}
}

func TestGainRatioVsPlainGain(t *testing.T) {
	// An id-like nominal attribute (many values, each nearly unique)
	// seduces plain gain; gain ratio resists it.
	d := dataset.New("id", []dataset.Attribute{
		dataset.NominalAttr("id", "a", "b", "c", "d", "e", "f", "g", "h"),
		dataset.NumericAttr("x"),
	}, []string{"no", "yes"})
	rng := stats.NewRNG(21)
	for i := 0; i < 240; i++ {
		x := rng.Float64()
		class := 0
		if x > 0.5 {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{float64(i % 8), x}, Class: class, Weight: 1})
	}
	gr, err := Learner{Config: Config{NoPrune: true}}.FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Root.Attr != 1 {
		t.Errorf("gain ratio root = attr %d, want x(1)", gr.Root.Attr)
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
