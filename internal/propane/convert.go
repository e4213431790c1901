package propane

import (
	"errors"
	"math"

	"edem/internal/dataset"
)

// Class labels of fault-injection datasets. The positive (minority)
// concept is the failure-inducing state, at class index 1, matching the
// convention of internal/mining/eval.
const (
	ClassNonFailure = "nonfailure"
	ClassFailure    = "failure"
)

// ErrNoRecords reports a campaign with no usable (sampled) records.
var ErrNoRecords = errors.New("propane: campaign has no sampled records")

// FaultAttrs names the fault-model attributes ToDataset appends, in
// order, after the module's variables.
var FaultAttrs = [...]string{"fault_model", "fault_width", "fault_persist"}

// ToDataset converts a campaign into a mining dataset: one instance per
// sampled injected run, attributes the module's variables, class
// failure / nonfailure. Its output is the whole training domain:
// numeric attributes, no NaN, every row of weight 1. Non-finite sampled
// values (NaN/Inf produced by corrupted floating-point state) are
// clamped to ±1e308 so the learners see them as extreme but ordered
// magnitudes: NaN and +Inf to +1e308, -Inf to -1e308.
//
// Campaigns run under a non-transient fault model additionally carry
// three fault-model attributes (fault_model as the Model ordinal,
// fault_width, fault_persist) so the fault axis is available to mining
// when datasets from several models are merged. Transient campaigns
// omit them, keeping their ARFF output byte-identical to datasets
// generated before the fault-model axis existed.
func ToDataset(c *Campaign) (*dataset.Dataset, error) {
	fault := c.Spec.Fault.Normalized()
	faultAttrs := !fault.IsTransient()
	attrs := make([]dataset.Attribute, len(c.VarNames), len(c.VarNames)+3)
	for i, name := range c.VarNames {
		attrs[i] = dataset.NumericAttr(name)
	}
	if faultAttrs {
		for _, name := range FaultAttrs {
			attrs = append(attrs, dataset.NumericAttr(name))
		}
	}
	d := dataset.New(c.Spec.Dataset, attrs, []string{ClassNonFailure, ClassFailure})
	for i := range c.Records {
		r := &c.Records[i]
		if !r.Sampled {
			continue
		}
		vals := make([]float64, len(r.State), len(attrs))
		for j, v := range r.State {
			vals[j] = finite(v)
		}
		if faultAttrs {
			vals = append(vals,
				float64(fault.Model), float64(fault.Width), float64(fault.Persist))
		}
		class := 0
		if r.Failure {
			class = 1
		}
		if err := d.Add(dataset.Instance{Values: vals, Class: class, Weight: 1}); err != nil {
			return nil, err
		}
	}
	if d.Len() == 0 {
		return nil, ErrNoRecords
	}
	return d, nil
}

// finiteBound is the sentinel magnitude substituted for non-finite
// sampled values. It exceeds any legitimate value produced by the
// bundled targets by many orders of magnitude, so threshold splits can
// isolate corrupted states.
const finiteBound = 1e308

func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		// NaN has no place in the order, so it takes the positive
		// bound: a NaN state is as anomalous as an overflowed one.
		return finiteBound
	case math.IsInf(v, 1):
		return finiteBound
	case math.IsInf(v, -1):
		return -finiteBound
	default:
		return v
	}
}
