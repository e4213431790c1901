package rules

import (
	"strings"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining"
	"edem/internal/stats"
)

func thresholdData(n int, seed uint64) *dataset.Dataset {
	d := dataset.New("thr", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("noise"),
	}, []string{"lo", "hi"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x := rng.Float64()
		class := 0
		if x > 0.6 {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, rng.Float64()}, Class: class, Weight: 1})
	}
	return d
}

func nominalData() *dataset.Dataset {
	d := dataset.New("nom", []dataset.Attribute{
		dataset.NominalAttr("color", "red", "green", "blue"),
		dataset.NominalAttr("size", "s", "l"),
	}, []string{"no", "yes"})
	// yes iff color == green.
	rows := [][3]float64{
		{0, 0, 0}, {0, 1, 0}, {1, 0, 1}, {1, 1, 1},
		{2, 0, 0}, {2, 1, 0}, {1, 0, 1}, {0, 0, 0},
		{1, 1, 1}, {2, 1, 0}, {0, 1, 0}, {1, 0, 1},
	}
	for _, r := range rows {
		d.MustAdd(dataset.Instance{Values: []float64{r[0], r[1]}, Class: int(r[2]), Weight: 1})
	}
	return d
}

func accuracy(c mining.Classifier, d *dataset.Dataset) float64 {
	correct := 0
	for i := range d.Instances {
		if c.Classify(d.Instances[i].Values) == d.Instances[i].Class {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

func TestPRISMNumeric(t *testing.T) {
	d := thresholdData(300, 4)
	model, err := PRISM{}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(model, d); acc < 0.93 {
		t.Errorf("PRISM accuracy = %.3f", acc)
	}
	rs, ok := model.(*RuleSet)
	if !ok {
		t.Fatalf("model type %T", model)
	}
	if len(rs.Rules) == 0 {
		t.Fatal("no rules learnt")
	}
	s := rs.String()
	if !strings.Contains(s, "IF ") || !strings.Contains(s, "DEFAULT") {
		t.Errorf("rendering: %s", s)
	}
}

func TestPRISMNominal(t *testing.T) {
	d := nominalData()
	model, err := PRISM{MinCover: 1}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(model, d); acc < 0.9 {
		t.Errorf("PRISM nominal accuracy = %.3f", acc)
	}
}

func TestPRISMMaxRules(t *testing.T) {
	d := thresholdData(400, 5)
	// Flip some labels so covering needs many rules, then cap them.
	rng := stats.NewRNG(6)
	for i := range d.Instances {
		if rng.Float64() < 0.2 {
			d.Instances[i].Class = 1 - d.Instances[i].Class
		}
	}
	model, err := PRISM{MaxRules: 3}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	rs := model.(*RuleSet)
	if len(rs.Rules) > 3 {
		t.Errorf("rules = %d, want <= 3", len(rs.Rules))
	}
}

func TestPRISMNames(t *testing.T) {
	if (PRISM{}).Name() != "PRISM" {
		t.Error("names")
	}
}

func TestRuleSetSize(t *testing.T) {
	rs := &RuleSet{
		Rules: []Rule{
			{Conds: []Condition{{Attr: 0, LessEq: true, Threshold: 1}}, Class: 1},
			{Conds: []Condition{{Attr: 0}, {Attr: 1}}, Class: 1},
		},
	}
	if rs.Size() != 5 { // 2 rules + 3 conditions
		t.Errorf("size = %d", rs.Size())
	}
}

func TestConditionMissingNeverMatches(t *testing.T) {
	c := Condition{Attr: 0, LessEq: true, Threshold: 100}
	if c.matches([]float64{dataset.Missing}, []dataset.Attribute{dataset.NumericAttr("x")}) {
		t.Fatal("missing value must not match any condition")
	}
}
