package tree

import (
	"math"
	"reflect"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining/sampling"
	"edem/internal/stats"
)

// nodesEqual compares two trees structurally, distributions included —
// byte-identity, not just equal predictions: thresholds compare by bits,
// so −0 differs from +0.
func nodesEqual(a, b *Node) bool {
	if a.Attr != b.Attr || math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) || a.Class != b.Class {
		return false
	}
	if !reflect.DeepEqual(a.Dist, b.Dist) {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !nodesEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// FitTree and FitTreeView on the identity view must both reproduce the
// general builder's tree bit for bit, distributions included.
func TestFitTreeViewMatchesFitTree(t *testing.T) {
	d := mixedDataset(400, 21)
	want := fitGeneral(Config{}, d)
	fitted, err := (Learner{}).FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(want, fitted.Root) {
		t.Fatal("FitTree diverges from the general builder")
	}
	got, err := (Learner{}).FitTreeView(dataset.NewStore(d, nil).IdentityView())
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(want, got.Root) {
		t.Fatal("view-based tree diverges from the general builder")
	}
}

// Every sampling view shape (select, repeat, extend) must induce the
// identical tree to the general builder on the materialised view: the
// merged sort orders stand in for per-node sorting.
func TestFitTreeViewMatchesSampledDatasets(t *testing.T) {
	d := mixedDataset(300, 22)
	// mixedDataset classes come from its own rule; relabel a slice of
	// rows to get a clear minority for the sampling transforms.
	for i := range d.Instances {
		d.Instances[i].Class = 0
	}
	for i := 0; i < 40; i++ {
		d.Instances[i*7].Class = 1
	}
	st := dataset.NewStore(d, nil)

	cases := []struct {
		name string
		view func(rng *stats.RNG) (*dataset.View, error)
	}{
		{"undersample", func(rng *stats.RNG) (*dataset.View, error) { return sampling.UndersampleView(st, 0, 35, rng) }},
		{"oversample", func(rng *stats.RNG) (*dataset.View, error) { return sampling.OversampleView(st, 1, 400, rng) }},
		{"smote", func(rng *stats.RNG) (*dataset.View, error) { return sampling.SMOTEView(st, 1, 300, 5, rng) }},
	}
	for _, tc := range cases {
		v, err := tc.view(stats.NewRNG(31))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if v.HasMissing() {
			t.Fatalf("%s: view lost its sort orders", tc.name)
		}
		want := fitGeneral(Config{}, v.Materialize())
		got, err := (Learner{}).FitTreeView(v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !nodesEqual(want, got.Root) {
			t.Fatalf("%s: view-based tree diverges from the general builder", tc.name)
		}
	}
}

// A view over a store with missing values must fall back to the general
// fractional-weight builder and still match FitTree.
func TestFitTreeViewMissingFallback(t *testing.T) {
	d := mixedDataset(200, 23)
	for i := 0; i < 200; i += 9 {
		d.Instances[i].Values[0] = dataset.Missing
	}
	d.InvalidateMissing()
	want, err := (Learner{}).FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	st := dataset.NewStore(d, nil)
	v := st.IdentityView()
	if !v.HasMissing() {
		t.Fatal("view must report missing values")
	}
	got, err := (Learner{}).FitTreeView(v)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(want.Root, got.Root) {
		t.Fatal("fallback tree diverges from instance-based tree")
	}
}

// FitTree must route missing-valued data through the general builder
// even when the cached answer was computed before the data existed —
// pinning the cache-maintenance contract of dataset.Add.
func TestFitTreeMissingFallbackAfterAdd(t *testing.T) {
	d := mixedDataset(100, 24)
	if d.HasMissing() {
		t.Fatal("unexpected missing values")
	}
	vals := make([]float64, len(d.Attrs))
	vals[0] = dataset.Missing
	vals[2] = 0
	d.MustAdd(dataset.Instance{Values: vals, Class: 0, Weight: 1})
	if !d.HasMissing() {
		t.Fatal("Add must maintain the missing cache")
	}
	general := fitGeneral(Config{}, d)
	got, err := (Learner{}).FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(general, got.Root) {
		t.Fatal("FitTree did not use the general builder for missing data")
	}
}

func TestFitTreeViewEmpty(t *testing.T) {
	d := mixedDataset(10, 25)
	st := dataset.NewStore(d, []int{})
	if _, err := (Learner{}).FitTreeView(st.IdentityView()); err != ErrEmptyTraining {
		t.Fatalf("got %v, want ErrEmptyTraining", err)
	}
}
