// Package rules implements a PRISM-style covering rule inducer, the
// other symbolic learner family the paper discusses (§IV/§V-C) next to
// decision tree induction.
//
// Role in the methodology: an alternative predicate source for Step 3;
// being symbolic, PRISM rule sets feed internal/predicate (edem rules).
// Concurrency: the learner follows the internal/mining contract — the
// covering loop works on a shared-value subset it filters itself, never
// mutating the caller's data — and fitted rule sets are immutable and
// safe for concurrent use.
package rules

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"edem/internal/dataset"
	"edem/internal/mining"
)

// PRISM is a covering rule inducer (Cendrowska, 1987) extended with
// binary threshold conditions for numeric attributes. For each class it
// repeatedly builds the maximally precise conjunctive rule and removes
// the covered instances.
type PRISM struct {
	// MaxRules bounds the total number of rules (default 64).
	MaxRules int
	// MinCover is the minimum instance weight a rule must cover
	// (default 2).
	MinCover float64
}

var _ mining.Learner = PRISM{}

// Name implements mining.Learner.
func (PRISM) Name() string { return "PRISM" }

func (p PRISM) maxRules() int {
	if p.MaxRules <= 0 {
		return 64
	}
	return p.MaxRules
}

func (p PRISM) minCover() float64 {
	if p.MinCover <= 0 {
		return 2
	}
	return p.MinCover
}

// Condition is one conjunct of a PRISM rule.
type Condition struct {
	Attr      int
	Nominal   bool
	Value     int     // nominal equality
	LessEq    bool    // numeric: v <= Threshold when true, v > otherwise
	Threshold float64 // numeric
}

func (c Condition) matches(values []float64, attrs []dataset.Attribute) bool {
	v := values[c.Attr]
	if dataset.IsMissing(v) {
		return false
	}
	if c.Nominal {
		return int(v) == c.Value
	}
	if c.LessEq {
		return v <= c.Threshold
	}
	return v > c.Threshold
}

// Rule is a conjunctive classification rule.
type Rule struct {
	Conds []Condition
	Class int
}

// RuleSet is an ordered PRISM rule list with a default class.
type RuleSet struct {
	Rules   []Rule
	Default int
	attrs   []dataset.Attribute
}

var (
	_ mining.Classifier = (*RuleSet)(nil)
	_ mining.Sizer      = (*RuleSet)(nil)
)

// Size reports the total number of conditions plus rules.
func (rs *RuleSet) Size() int {
	n := len(rs.Rules)
	for _, r := range rs.Rules {
		n += len(r.Conds)
	}
	return n
}

// Classify implements mining.Classifier.
func (rs *RuleSet) Classify(values []float64) int {
	for _, r := range rs.Rules {
		matched := true
		for _, c := range r.Conds {
			if !c.matches(values, rs.attrs) {
				matched = false
				break
			}
		}
		if matched {
			return r.Class
		}
	}
	return rs.Default
}

// String renders the rule set as text.
func (rs *RuleSet) String() string {
	var sb strings.Builder
	for _, r := range rs.Rules {
		sb.WriteString("IF ")
		for i, c := range r.Conds {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			name := fmt.Sprintf("attr%d", c.Attr)
			if c.Attr < len(rs.attrs) {
				name = rs.attrs[c.Attr].Name
			}
			switch {
			case c.Nominal:
				fmt.Fprintf(&sb, "%s = %s", name, rs.attrs[c.Attr].Values[c.Value])
			case c.LessEq:
				fmt.Fprintf(&sb, "%s <= %g", name, c.Threshold)
			default:
				fmt.Fprintf(&sb, "%s > %g", name, c.Threshold)
			}
		}
		fmt.Fprintf(&sb, " THEN class=%d\n", r.Class)
	}
	fmt.Fprintf(&sb, "DEFAULT class=%d\n", rs.Default)
	return sb.String()
}

// Fit implements mining.Learner.
func (p PRISM) Fit(d *dataset.Dataset) (mining.Classifier, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("rules: empty training set")
	}
	rs := &RuleSet{Default: d.MajorityClass(), attrs: d.Attrs}

	// Learn rules for minority classes first so the default class
	// covers the bulk.
	order := classOrderByWeight(d)
	// Rule growth only reads instances and filters them out as rules
	// cover them; sharing Values is safe (ownership contract).
	remaining := d.CloneShared()
	for _, class := range order {
		if class == rs.Default {
			continue
		}
		for len(rs.Rules) < p.maxRules() {
			rule, covered := p.growRule(remaining, class)
			if rule == nil || covered < p.minCover() {
				break
			}
			rs.Rules = append(rs.Rules, *rule)
			remaining = removeCovered(remaining, rule, d.Attrs)
		}
	}
	return rs, nil
}

// growRule greedily adds the condition maximising rule precision for
// the class (ties broken by coverage) until the rule is pure or no
// condition improves it.
func (p PRISM) growRule(d *dataset.Dataset, class int) (*Rule, float64) {
	active := make([]bool, d.Len())
	for i := range active {
		active[i] = true
	}
	rule := &Rule{Class: class}
	for len(rule.Conds) < 6 {
		posW, totW := coverage(d, active, class)
		if totW == 0 || posW == 0 {
			return nil, 0
		}
		if posW == totW {
			break // pure
		}
		cond, gain := p.bestCondition(d, active, class, posW/totW)
		if cond == nil || gain <= 0 {
			break
		}
		rule.Conds = append(rule.Conds, *cond)
		for i := range active {
			if active[i] && !cond.matches(d.Instances[i].Values, d.Attrs) {
				active[i] = false
			}
		}
	}
	if len(rule.Conds) == 0 {
		return nil, 0
	}
	posW, totW := coverage(d, active, class)
	if totW == 0 || posW/totW <= 0.5 {
		return nil, 0
	}
	return rule, posW
}

func (p PRISM) bestCondition(d *dataset.Dataset, active []bool, class int, basePrec float64) (*Condition, float64) {
	var best *Condition
	bestPrec, bestCover := basePrec, 0.0
	consider := func(c Condition) {
		pos, tot := 0.0, 0.0
		for i := range d.Instances {
			if !active[i] {
				continue
			}
			if c.matches(d.Instances[i].Values, d.Attrs) {
				tot += d.Instances[i].Weight
				if d.Instances[i].Class == class {
					pos += d.Instances[i].Weight
				}
			}
		}
		if tot < p.minCover() || pos == 0 {
			return
		}
		prec := pos / tot
		if prec > bestPrec || (prec == bestPrec && pos > bestCover) {
			bestPrec, bestCover = prec, pos
			cc := c
			best = &cc
		}
	}

	for a := range d.Attrs {
		if d.Attrs[a].Type == dataset.Nominal {
			for v := range d.Attrs[a].Values {
				consider(Condition{Attr: a, Nominal: true, Value: v})
			}
			continue
		}
		for _, t := range candidateThresholds(d, active, a) {
			consider(Condition{Attr: a, LessEq: true, Threshold: t})
			consider(Condition{Attr: a, LessEq: false, Threshold: t})
		}
	}
	return best, bestPrec - basePrec
}

// candidateThresholds returns up to 16 quantile-based thresholds of the
// active instances for a numeric attribute — a coarse but fast
// discretisation for rule growing.
func candidateThresholds(d *dataset.Dataset, active []bool, attr int) []float64 {
	var vals []float64
	for i := range d.Instances {
		if !active[i] {
			continue
		}
		v := d.Instances[i].Values[attr]
		if !dataset.IsMissing(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) < 2 {
		return nil
	}
	sort.Float64s(vals)
	const buckets = 16
	var out []float64
	prev := math.Inf(-1)
	for b := 1; b < buckets; b++ {
		t := vals[len(vals)*b/buckets]
		if t != prev {
			out = append(out, t)
			prev = t
		}
	}
	return out
}

func coverage(d *dataset.Dataset, active []bool, class int) (posW, totW float64) {
	for i := range d.Instances {
		if !active[i] {
			continue
		}
		totW += d.Instances[i].Weight
		if d.Instances[i].Class == class {
			posW += d.Instances[i].Weight
		}
	}
	return posW, totW
}

func removeCovered(d *dataset.Dataset, rule *Rule, attrs []dataset.Attribute) *dataset.Dataset {
	return d.Filter(func(in dataset.Instance) bool {
		for _, c := range rule.Conds {
			if !c.matches(in.Values, attrs) {
				return true
			}
		}
		return false
	})
}

func classOrderByWeight(d *dataset.Dataset) []int {
	ws := d.ClassWeights()
	order := make([]int, len(ws))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ws[order[a]] < ws[order[b]] })
	return order
}
