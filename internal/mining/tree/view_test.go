package tree

import (
	"fmt"
	"math"
	"reflect"
	"strings"
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
	want := fitGeneral(d)
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
		{"smote", func(rng *stats.RNG) (*dataset.View, error) {
			ni, err := sampling.BuildViewIndex(st, 1, 5)
			if err != nil {
				return nil, err
			}
			return ni.SMOTEView(300, 5, rng)
		}},
	}
	for _, tc := range cases {
		v, err := tc.view(stats.NewRNG(31))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := fitGeneral(v.Materialize())
		got, err := (Learner{}).FitTreeView(v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !nodesEqual(want, got.Root) {
			t.Fatalf("%s: view-based tree diverges from the general builder", tc.name)
		}
	}
}

// A class domain wider than two classes is refused, since the group
// builder counts the rows of class 1 and infers class 0; one of exactly
// two classes fits, and matches the general builder.
func TestFitTreeViewRefusesManyClasses(t *testing.T) {
	fit := func(nClasses int) (*Tree, *dataset.Dataset, error) {
		classes := make([]string, nClasses)
		for i := range classes {
			classes[i] = fmt.Sprintf("c%d", i)
		}
		d := dataset.New("wide-classes", []dataset.Attribute{dataset.NumericAttr("x")}, classes)
		rng := stats.NewRNG(26)
		for i := 0; i < 2000; i++ {
			x := rng.Float64()
			d.MustAdd(dataset.Instance{Values: []float64{x}, Class: int(x*float64(nClasses)) % nClasses, Weight: 1})
		}
		tr, err := (Learner{}).FitTreeView(dataset.NewStore(d, nil).IdentityView())
		return tr, d, err
	}
	if _, _, err := fit(maxClasses + 1); err == nil || !strings.Contains(err.Error(), "more than 2 classes") {
		t.Fatalf("3 classes: err = %v, want a refusal", err)
	}
	got, d, err := fit(maxClasses)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(got.Root, fitGeneral(d)) {
		t.Fatal("a two-class view diverges from the general builder")
	}
	if got.Root.IsLeaf() {
		t.Fatal("the two-class tree must split")
	}
}

func TestFitTreeViewEmpty(t *testing.T) {
	d := mixedDataset(10, 25)
	st := dataset.NewStore(d, []int{})
	if _, err := (Learner{}).FitTreeView(st.IdentityView()); err != ErrEmptyTraining {
		t.Fatalf("got %v, want ErrEmptyTraining", err)
	}
}
