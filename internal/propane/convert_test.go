package propane

import (
	"context"
	"errors"
	"math"
	"testing"

	"edem/internal/dataset"
)

func TestToDataset(t *testing.T) {
	camp, err := Run(context.Background(), &toyTarget{}, toySpec())
	if err != nil {
		t.Fatal(err)
	}
	d, err := ToDataset(camp)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Name != "TOY-1" {
		t.Errorf("name = %q", d.Name)
	}
	if d.Len() != camp.Usable() {
		t.Errorf("instances = %d, usable = %d", d.Len(), camp.Usable())
	}
	if len(d.Attrs) != 3 || d.Attrs[0].Name != "acc" {
		t.Errorf("attrs = %v", d.Attrs)
	}
	if d.ClassValues[0] != ClassNonFailure || d.ClassValues[1] != ClassFailure {
		t.Errorf("classes = %v", d.ClassValues)
	}
	positives := 0
	for i := range d.Instances {
		if d.Instances[i].Class == 1 {
			positives++
		}
	}
	if positives != camp.Failures() {
		t.Errorf("positives = %d, failures = %d", positives, camp.Failures())
	}
}

func TestToDatasetSkipsUnsampled(t *testing.T) {
	c := &Campaign{
		Spec:     Spec{Dataset: "D"},
		VarNames: []string{"a"},
		Records: []Record{
			{Injected: true, Sampled: false, Failure: true},
			{Injected: true, Sampled: true, State: []float64{1}, Failure: false},
		},
	}
	d, err := ToDataset(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("instances = %d, want 1", d.Len())
	}
}

func TestToDatasetEmpty(t *testing.T) {
	c := &Campaign{Spec: Spec{Dataset: "D"}, VarNames: []string{"a"}}
	if _, err := ToDataset(c); !errors.Is(err, ErrNoRecords) {
		t.Fatalf("err = %v, want ErrNoRecords", err)
	}
}

func TestToDatasetClampsNonFinite(t *testing.T) {
	c := &Campaign{
		Spec:     Spec{Dataset: "D"},
		VarNames: []string{"a", "b", "c"},
		Records: []Record{
			{Sampled: true, State: []float64{math.NaN(), math.Inf(1), math.Inf(-1)}, Failure: true},
		},
	}
	d, err := ToDataset(c)
	if err != nil {
		t.Fatal(err)
	}
	vs := d.Instances[0].Values
	if vs[0] != 1e308 || vs[1] != 1e308 || vs[2] != -1e308 {
		t.Fatalf("clamped values = %v", vs)
	}
	if dataset.IsMissing(vs[0]) {
		t.Fatal("NaN must be clamped, not treated as missing")
	}
}
