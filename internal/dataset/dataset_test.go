package dataset

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"edem/internal/stats"
)

func twoClassSchema() ([]Attribute, []string) {
	return []Attribute{
		NumericAttr("x"),
		NumericAttr("y"),
		NominalAttr("color", "red", "green", "blue"),
	}, []string{"neg", "pos"}
}

func sampleDataset(t *testing.T, n int) *Dataset {
	t.Helper()
	attrs, classes := twoClassSchema()
	d := New("sample", attrs, classes)
	rng := stats.NewRNG(1)
	for i := 0; i < n; i++ {
		class := 0
		if i%5 == 0 {
			class = 1
		}
		d.MustAdd(Instance{
			Values: []float64{rng.Float64() * 10, rng.Float64(), float64(rng.Intn(3))},
			Class:  class,
			Weight: 1,
		})
	}
	return d
}

func TestNewCopiesSchema(t *testing.T) {
	attrs, classes := twoClassSchema()
	d := New("n", attrs, classes)
	attrs[0].Name = "mutated"
	classes[0] = "mutated"
	if d.Attrs[0].Name != "x" || d.ClassValues[0] != "neg" {
		t.Fatal("New must copy the schema slices")
	}
}

func TestAddValidation(t *testing.T) {
	attrs, classes := twoClassSchema()
	d := New("v", attrs, classes)
	if err := d.Add(Instance{Values: []float64{1}, Class: 0}); !errors.Is(err, ErrArity) {
		t.Errorf("arity error = %v", err)
	}
	if err := d.Add(Instance{Values: []float64{1, 2, 0}, Class: 7}); !errors.Is(err, ErrClassRange) {
		t.Errorf("class error = %v", err)
	}
	if err := d.Add(Instance{Values: []float64{1, 2, 0}, Class: 1}); err != nil {
		t.Errorf("valid add: %v", err)
	}
	// Zero weight defaults to 1.
	if d.Instances[0].Weight != 1 {
		t.Errorf("weight = %v, want 1", d.Instances[0].Weight)
	}
}

// TestSubset pins Subset's contract: the chosen instances, deep-copied
// so the result's Values may be mutated freely.
func TestSubset(t *testing.T) {
	d := sampleDataset(t, 10)
	sub := d.Subset([]int{0, 2, 4})
	if sub.Len() != 3 {
		t.Fatalf("subset len = %d", sub.Len())
	}
	for k, i := range []int{0, 2, 4} {
		if !reflect.DeepEqual(sub.Instances[k], d.Instances[i]) {
			t.Fatalf("subset instance %d = %+v, want %+v", k, sub.Instances[k], d.Instances[i])
		}
		if &sub.Instances[k].Values[0] == &d.Instances[i].Values[0] {
			t.Fatal("Subset must deep-copy Values")
		}
	}
}

func TestMissingSentinel(t *testing.T) {
	if !IsMissing(Missing) {
		t.Fatal("Missing must be missing")
	}
	if IsMissing(0) || IsMissing(math.Inf(1)) {
		t.Fatal("0 and Inf are not missing")
	}
}

func TestValidate(t *testing.T) {
	attrs, classes := twoClassSchema()
	d := New("v", attrs, classes)
	d.MustAdd(Instance{Values: []float64{1, 2, 1}, Class: 0, Weight: 1})
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset: %v", err)
	}
	// Out-of-domain nominal index.
	d.Instances[0].Values[2] = 9
	if err := d.Validate(); err == nil {
		t.Fatal("nominal out of domain must fail validation")
	}
	d.Instances[0].Values[2] = 0.5
	if err := d.Validate(); err == nil {
		t.Fatal("non-integer nominal index must fail validation")
	}
	// Missing nominal is allowed.
	d.Instances[0].Values[2] = Missing
	if err := d.Validate(); err != nil {
		t.Fatalf("missing nominal should validate: %v", err)
	}

	empty := New("e", nil, classes)
	if err := empty.Validate(); !errors.Is(err, ErrNoAttributes) {
		t.Errorf("empty attrs error = %v", err)
	}
	noClass := New("e", attrs, nil)
	if err := noClass.Validate(); !errors.Is(err, ErrNoClass) {
		t.Errorf("no class error = %v", err)
	}
}
