package attrsel

import (
	"errors"
	"testing"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// signalAndNoise: class determined by x (numeric) and mode (nominal);
// noise carries nothing.
func signalAndNoise(n int, seed uint64) *dataset.Dataset {
	d := dataset.New("sn", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("noise"),
		dataset.NominalAttr("mode", "m0", "m1"),
	}, []string{"neg", "pos"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x := rng.Float64()
		mode := rng.Intn(2)
		class := 0
		if x > 0.5 && mode == 1 {
			class = 1
		}
		d.MustAdd(dataset.Instance{
			Values: []float64{x, rng.Float64(), float64(mode)},
			Class:  class, Weight: 1,
		})
	}
	return d
}

func TestRankOrdersSignalFirst(t *testing.T) {
	d := signalAndNoise(600, 1)
	for _, m := range []Method{InfoGain, GainRatio, Symmetrical} {
		scores, err := Rank(d, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(scores) != 3 {
			t.Fatalf("%v: scores = %d", m, len(scores))
		}
		// noise must rank last under every criterion.
		if scores[2].Name != "noise" {
			t.Errorf("%v: ranking = %v, %v, %v", m, scores[0].Name, scores[1].Name, scores[2].Name)
		}
		if scores[0].Value < scores[2].Value {
			t.Errorf("%v: descending order violated", m)
		}
		for _, s := range scores {
			if s.Value < 0 {
				t.Errorf("%v: negative score for %s", m, s.Name)
			}
		}
	}
}

func TestRankEmpty(t *testing.T) {
	d := dataset.New("e", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"a", "b"})
	if _, err := Rank(d, InfoGain); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestMethodString(t *testing.T) {
	if InfoGain.String() != "InfoGain" || GainRatio.String() != "GainRatio" ||
		Symmetrical.String() != "SymmetricalUncertainty" {
		t.Error("method names")
	}
	if Method(9).String() != "Method(9)" {
		t.Error("unknown method rendering")
	}
}

func TestRankConstantAttribute(t *testing.T) {
	d := dataset.New("c", []dataset.Attribute{
		dataset.NumericAttr("const"),
		dataset.NumericAttr("x"),
	}, []string{"a", "b"})
	rng := stats.NewRNG(3)
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		class := 0
		if x > 0.5 {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{7, x}, Class: class, Weight: 1})
	}
	scores, err := Rank(d, GainRatio)
	if err != nil {
		t.Fatal(err)
	}
	// The constant attribute carries nothing and must score 0.
	for _, s := range scores {
		if s.Name == "const" && s.Value != 0 {
			t.Errorf("constant attribute scored %v", s.Value)
		}
	}
}
