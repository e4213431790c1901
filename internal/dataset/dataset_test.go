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
		NumericAttr("z"),
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
	// The training domain: a weight of 1 (0 means 1); for NaN see
	// TestMissingSentinel.
	if err := d.Add(Instance{Values: []float64{1, 2, 0}, Class: 1, Weight: 2}); !errors.Is(err, ErrWeight) {
		t.Errorf("weight 2 error = %v", err)
	}
	if err := d.Add(Instance{Values: []float64{1, 2, 0}, Class: 1, Weight: 0.5}); !errors.Is(err, ErrWeight) {
		t.Errorf("weight 0.5 error = %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("refused instances were added: %d", d.Len())
	}
	// ±Inf is a number: the domain holds the clamps and beyond.
	if err := d.Add(Instance{Values: []float64{math.Inf(1), -1e308, 0}, Class: 1, Weight: 1}); err != nil {
		t.Errorf("valid add: %v", err)
	}
	// Zero weight is stored as 1.
	if err := d.Add(Instance{Values: []float64{1, 2, 0}, Class: 1}); err != nil {
		t.Errorf("valid add: %v", err)
	}
	if d.Instances[1].Weight != 1 {
		t.Errorf("weight = %v, want 1", d.Instances[1].Weight)
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

// TestMissingSentinel: the training domain has no missing-value
// sentinel. Add refuses NaN, leaving the dataset as it was, and
// Validate refuses NaN written past Add.
func TestMissingSentinel(t *testing.T) {
	attrs, classes := twoClassSchema()
	d := New("m", attrs, classes)
	d.MustAdd(Instance{Values: []float64{1, 2, 3}, Class: 0})
	if err := d.Add(Instance{Values: []float64{1, math.NaN(), 0}, Class: 1}); !errors.Is(err, ErrNaN) {
		t.Errorf("Add of NaN: err = %v, want ErrNaN", err)
	}
	if d.Len() != 1 {
		t.Fatalf("the refused row was added: %d rows", d.Len())
	}
	d.Instances[0].Values[1] = math.NaN()
	if err := d.Validate(); !errors.Is(err, ErrNaN) {
		t.Errorf("Validate of NaN: err = %v, want ErrNaN", err)
	}
}

func TestValidate(t *testing.T) {
	attrs, classes := twoClassSchema()
	d := New("v", attrs, classes)
	d.MustAdd(Instance{Values: []float64{1, 2, 1}, Class: 0, Weight: 1})
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset: %v", err)
	}
	// Direct writes bypass Add; Validate catches what Add would refuse.
	d.Instances = append(d.Instances, Instance{Values: []float64{3, 4, 5}, Class: 1})
	if err := d.Validate(); err != nil {
		t.Fatalf("weight 0 means 1 and should validate: %v", err)
	}
	d.Instances[1].Values[2] = math.NaN()
	if err := d.Validate(); !errors.Is(err, ErrNaN) {
		t.Fatalf("NaN value: Validate = %v", err)
	}
	d.Instances[1].Values[2] = 5
	d.Instances[1].Weight = 2
	if err := d.Validate(); !errors.Is(err, ErrWeight) {
		t.Fatalf("weight 2: Validate = %v", err)
	}
	d.Instances[1].Weight = 1
	d.Instances[1].Class = 2
	if err := d.Validate(); !errors.Is(err, ErrClassRange) {
		t.Fatalf("class out of range: Validate = %v", err)
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
