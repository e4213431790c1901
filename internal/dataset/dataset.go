// Package dataset provides the relational data model consumed by the
// mining algorithms: attributes, instances, datasets, stratified
// cross-validation folds, and the ARFF and CSV writers (the ARFF
// format of the Weka suite; paper §V-C step 1: format transformation).
//
// The training domain is numeric, NaN-free rows of weight 1: that is
// what propane.ToDataset produces, and Add and Validate refuse
// anything else. There are no missing values, nominal attributes or
// instance weights (DESIGN.md §10).
//
// Role in the methodology: Step 2 (preprocessing) — campaign logs
// become instances here, and every later step consumes this model. Ownership/concurrency: Subset deep-copies and yields an
// independently mutable dataset; Store and View
// (DESIGN.md §10) are immutable after construction and safe for
// concurrent read — many fold workers train from one store without
// locking. A plain *Dataset is not synchronised: share it only after
// mutation stops.
package dataset

import (
	"errors"
	"fmt"
)

// Attribute describes one column of a dataset. Every attribute is
// numeric: a sampled module variable (or a fault-model parameter).
type Attribute struct {
	Name string
}

// NumericAttr constructs a numeric attribute.
func NumericAttr(name string) Attribute {
	return Attribute{Name: name}
}

// Instance is one sampled program state: attribute values plus a class
// label.
type Instance struct {
	// Values holds one number per attribute, never NaN: propane.ToDataset
	// clamps non-finite sampled values before they get here.
	Values []float64
	// Class is the index into Dataset.ClassValues.
	Class int
	// Weight is always 1: Add stores 0 as 1 and refuses any other
	// value. It remains for the benchmark's tracer, which passes it to
	// ConfusionMatrix.Record.
	Weight float64
}

// Clone returns a deep copy of the instance.
func (in Instance) Clone() Instance {
	vs := make([]float64, len(in.Values))
	copy(vs, in.Values)
	return Instance{Values: vs, Class: in.Class, Weight: in.Weight}
}

// Dataset is a named relation with a distinguished nominal class.
//
// Ownership contract: Subset deep-copies, handing the caller instances
// whose Values it may mutate freely. Read-only sharing goes through
// Store and View instead, whose arrays learners only read
// (mining.Learner).
type Dataset struct {
	Name        string
	Attrs       []Attribute
	ClassValues []string
	Instances   []Instance
}

// Common validation errors.
var (
	ErrNoAttributes = errors.New("dataset: no attributes")
	ErrNoClass      = errors.New("dataset: no class values")
	ErrArity        = errors.New("dataset: instance arity does not match attributes")
	ErrClassRange   = errors.New("dataset: class index out of range")
	ErrNaN          = errors.New("dataset: NaN value (the training domain is numeric and NaN-free)")
	ErrWeight       = errors.New("dataset: instance weight other than 1 (every training row weighs 1; 0 means 1)")
)

// New constructs an empty dataset with the given schema.
func New(name string, attrs []Attribute, classValues []string) *Dataset {
	as := make([]Attribute, len(attrs))
	copy(as, attrs)
	cs := make([]string, len(classValues))
	copy(cs, classValues)
	return &Dataset{Name: name, Attrs: as, ClassValues: cs}
}

// Add appends an instance after validating it against the schema and
// the training domain: no NaN value, and a weight of 1 (0 is stored as
// 1).
func (d *Dataset) Add(in Instance) error {
	if err := d.check(in); err != nil {
		return err
	}
	in.Weight = 1
	d.Instances = append(d.Instances, in)
	return nil
}

// check validates one instance against the schema and the training
// domain.
func (d *Dataset) check(in Instance) error {
	if len(in.Values) != len(d.Attrs) {
		return fmt.Errorf("%w: got %d values, want %d", ErrArity, len(in.Values), len(d.Attrs))
	}
	if in.Class < 0 || in.Class >= len(d.ClassValues) {
		return fmt.Errorf("%w: %d", ErrClassRange, in.Class)
	}
	if in.Weight != 1 && in.Weight != 0 {
		return fmt.Errorf("%w: %v", ErrWeight, in.Weight)
	}
	for j, v := range in.Values {
		if v != v {
			return fmt.Errorf("%w: attribute %q", ErrNaN, d.Attrs[j].Name)
		}
	}
	return nil
}

// MustAdd appends an instance and panics on schema mismatch. It is meant
// for tests and generators whose schema is statically correct.
func (d *Dataset) MustAdd(in Instance) {
	if err := d.Add(in); err != nil {
		panic(err)
	}
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.Instances) }

// CloneSchema returns an empty dataset with the same schema.
func (d *Dataset) CloneSchema() *Dataset {
	return New(d.Name, d.Attrs, d.ClassValues)
}

// Subset returns a new dataset containing clones of the instances at the
// given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := d.CloneSchema()
	out.Instances = make([]Instance, 0, len(idx))
	for _, i := range idx {
		out.Instances = append(out.Instances, d.Instances[i].Clone())
	}
	return out
}

// Validate checks the structural invariants of the dataset: non-empty
// schema, and instances that Add would accept (matching arity,
// in-range class, no NaN, weight 0 or 1). It catches what direct
// writes to Instances slipped past Add.
func (d *Dataset) Validate() error {
	if len(d.Attrs) == 0 {
		return ErrNoAttributes
	}
	if len(d.ClassValues) == 0 {
		return ErrNoClass
	}
	for i := range d.Instances {
		if err := d.check(d.Instances[i]); err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
	}
	return nil
}
