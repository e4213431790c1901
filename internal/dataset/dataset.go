// Package dataset provides the relational data model consumed by the
// mining algorithms: attributes, weighted instances, datasets, stratified
// cross-validation folds, and the two on-disk formats used by the
// methodology — the PROPANE fault-injection log format and the ARFF
// format of the Weka suite (paper §V-C step 1: format transformation).
//
// Role in the methodology: Step 2 (preprocessing) — campaign logs
// become weighted instances here, and every later step consumes this
// model. Ownership/concurrency: Subset deep-copies and yields an
// independently mutable dataset; Store and View
// (DESIGN.md §10) are immutable after construction and safe for
// concurrent read — many fold workers train from one store without
// locking. A plain *Dataset is not synchronised: share it only after
// mutation stops.
package dataset

import (
	"errors"
	"fmt"
	"math"
)

// AttrType distinguishes numeric from nominal attributes.
type AttrType int

// Attribute types.
const (
	Numeric AttrType = iota + 1
	Nominal
)

// String returns the ARFF spelling of the type.
func (t AttrType) String() string {
	switch t {
	case Numeric:
		return "numeric"
	case Nominal:
		return "nominal"
	default:
		return fmt.Sprintf("AttrType(%d)", int(t))
	}
}

// Attribute describes one column of a dataset.
type Attribute struct {
	Name string
	Type AttrType
	// Values is the domain of a nominal attribute, in declaration order.
	// Instance values for nominal attributes are indices into this slice.
	Values []string
}

// NumericAttr constructs a numeric attribute.
func NumericAttr(name string) Attribute {
	return Attribute{Name: name, Type: Numeric}
}

// NominalAttr constructs a nominal attribute over the given domain.
func NominalAttr(name string, values ...string) Attribute {
	vs := make([]string, len(values))
	copy(vs, values)
	return Attribute{Name: name, Type: Nominal, Values: vs}
}

// Missing is the sentinel for an absent attribute value.
var Missing = math.NaN()

// IsMissing reports whether v is the missing-value sentinel.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Instance is one sampled program state: attribute values plus a class
// label and an instance weight (C4.5 uses fractional weights for
// missing-value handling).
type Instance struct {
	// Values holds one entry per attribute: the numeric value for numeric
	// attributes, or the index into Attribute.Values for nominal ones.
	// NaN marks a missing value.
	Values []float64
	// Class is the index into Dataset.ClassValues.
	Class int
	// Weight is the instance weight; 1 for raw data.
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

	// missing caches the HasMissing answer; see missingUnknown et al.
	missing int8
}

// HasMissing cache states.
const (
	missingUnknown int8 = iota
	missingNo
	missingYes
)

// Common validation errors.
var (
	ErrNoAttributes = errors.New("dataset: no attributes")
	ErrNoClass      = errors.New("dataset: no class values")
	ErrArity        = errors.New("dataset: instance arity does not match attributes")
	ErrClassRange   = errors.New("dataset: class index out of range")
)

// New constructs an empty dataset with the given schema.
func New(name string, attrs []Attribute, classValues []string) *Dataset {
	as := make([]Attribute, len(attrs))
	copy(as, attrs)
	cs := make([]string, len(classValues))
	copy(cs, classValues)
	return &Dataset{Name: name, Attrs: as, ClassValues: cs}
}

// Add appends an instance after validating it against the schema.
func (d *Dataset) Add(in Instance) error {
	if len(in.Values) != len(d.Attrs) {
		return fmt.Errorf("%w: got %d values, want %d", ErrArity, len(in.Values), len(d.Attrs))
	}
	if in.Class < 0 || in.Class >= len(d.ClassValues) {
		return fmt.Errorf("%w: %d", ErrClassRange, in.Class)
	}
	if in.Weight == 0 {
		in.Weight = 1
	}
	if d.missing == missingNo && instanceHasMissing(in) {
		d.missing = missingYes
	}
	d.Instances = append(d.Instances, in)
	return nil
}

func instanceHasMissing(in Instance) bool {
	for _, v := range in.Values {
		if IsMissing(v) {
			return true
		}
	}
	return false
}

// HasMissing reports whether any instance value is missing. The answer
// is computed on the first call and cached; Add maintains the cache
// incrementally, and Subset propagates what the cache can
// prove (a subset of a missing-free dataset is missing-free). Code that
// appends to Instances directly, or mutates Values after the first
// call, must call InvalidateMissing. Not safe for a concurrent first
// call with other accesses; compute it before fanning out.
func (d *Dataset) HasMissing() bool {
	if d.missing == missingUnknown {
		d.missing = missingNo
		for i := range d.Instances {
			if instanceHasMissing(d.Instances[i]) {
				d.missing = missingYes
				break
			}
		}
	}
	return d.missing == missingYes
}

// InvalidateMissing drops the cached HasMissing answer. Call it after
// mutating Instances or Values outside Add.
func (d *Dataset) InvalidateMissing() { d.missing = missingUnknown }

// inheritMissing propagates the receiver's cache to a dataset holding a
// subset of its instances: only the missing-free answer survives (a
// subset of a dataset with missing values may or may not have any).
func (d *Dataset) inheritMissing(out *Dataset) {
	if d.missing == missingNo {
		out.missing = missingNo
	}
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
	d.inheritMissing(out)
	out.Instances = make([]Instance, 0, len(idx))
	for _, i := range idx {
		out.Instances = append(out.Instances, d.Instances[i].Clone())
	}
	return out
}

// Validate checks the structural invariants of the dataset: non-empty
// schema, matching arities, in-range class and nominal indices.
func (d *Dataset) Validate() error {
	if len(d.Attrs) == 0 {
		return ErrNoAttributes
	}
	if len(d.ClassValues) == 0 {
		return ErrNoClass
	}
	for i := range d.Instances {
		in := &d.Instances[i]
		if len(in.Values) != len(d.Attrs) {
			return fmt.Errorf("instance %d: %w", i, ErrArity)
		}
		if in.Class < 0 || in.Class >= len(d.ClassValues) {
			return fmt.Errorf("instance %d: %w", i, ErrClassRange)
		}
		for j, v := range in.Values {
			if d.Attrs[j].Type == Nominal && !IsMissing(v) {
				k := int(v)
				if float64(k) != v || k < 0 || k >= len(d.Attrs[j].Values) {
					return fmt.Errorf("instance %d attr %q: nominal index %v out of domain", i, d.Attrs[j].Name, v)
				}
			}
		}
	}
	return nil
}
