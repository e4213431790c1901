package dataset

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"edem/internal/stats"
)

func TestARFFRoundTrip(t *testing.T) {
	d := sampleDataset(t, 25)
	d.Instances[3].Values[1] = Missing
	d.Instances[7].Values[2] = Missing

	var sb strings.Builder
	if err := WriteARFF(&sb, d); err != nil {
		t.Fatal(err)
	}
	got, err := readARFF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("readARFF: %v\n%s", err, sb.String())
	}
	if got.Name != d.Name || got.Len() != d.Len() {
		t.Fatalf("round trip changed shape: %q %d", got.Name, got.Len())
	}
	for i := range d.Instances {
		a, b := d.Instances[i], got.Instances[i]
		if a.Class != b.Class {
			t.Fatalf("instance %d class %d != %d", i, a.Class, b.Class)
		}
		for j := range a.Values {
			av, bv := a.Values[j], b.Values[j]
			if IsMissing(av) != IsMissing(bv) {
				t.Fatalf("instance %d value %d missing mismatch", i, j)
			}
			if !IsMissing(av) && av != bv {
				t.Fatalf("instance %d value %d: %v != %v", i, j, av, bv)
			}
		}
	}
}

func TestARFFRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		attrs := []Attribute{NumericAttr("a"), NominalAttr("b", "u", "v", "w")}
		d := New("prop", attrs, []string{"c0", "c1", "c2"})
		rng := stats.NewRNG(seed)
		for i := 0; i < n; i++ {
			v := rng.Float64()*2e6 - 1e6
			if rng.Intn(10) == 0 {
				v = Missing
			}
			d.MustAdd(Instance{
				Values: []float64{v, float64(rng.Intn(3))},
				Class:  rng.Intn(3),
				Weight: 1,
			})
		}
		var sb strings.Builder
		if err := WriteARFF(&sb, d); err != nil {
			return false
		}
		got, err := readARFF(strings.NewReader(sb.String()))
		if err != nil || got.Len() != d.Len() {
			return false
		}
		for i := range d.Instances {
			for j := range d.Instances[i].Values {
				av, bv := d.Instances[i].Values[j], got.Instances[i].Values[j]
				if IsMissing(av) != IsMissing(bv) || (!IsMissing(av) && av != bv) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestARFFQuotedNames(t *testing.T) {
	d := New("data set", []Attribute{
		NumericAttr("weird name"),
		NominalAttr("mode", "on off", "half,way"),
	}, []string{"no", "yes"})
	d.MustAdd(Instance{Values: []float64{1.5, 1}, Class: 1, Weight: 1})
	var sb strings.Builder
	if err := WriteARFF(&sb, d); err != nil {
		t.Fatal(err)
	}
	got, err := readARFF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("readARFF: %v\n%s", err, sb.String())
	}
	if got.Attrs[0].Name != "weird name" {
		t.Errorf("attr name = %q", got.Attrs[0].Name)
	}
	if got.Attrs[1].Values[0] != "on off" || got.Attrs[1].Values[1] != "half,way" {
		t.Errorf("nominal domain = %v", got.Attrs[1].Values)
	}
	if got.Instances[0].Values[1] != 1 {
		t.Errorf("nominal value = %v", got.Instances[0].Values[1])
	}
}

func TestARFFExtremeValues(t *testing.T) {
	d := New("x", []Attribute{NumericAttr("v")}, []string{"a", "b"})
	for _, v := range []float64{0, -0, 1e308, -1e308, 5e-324, math.MaxFloat64} {
		d.MustAdd(Instance{Values: []float64{v}, Class: 0, Weight: 1})
	}
	var sb strings.Builder
	if err := WriteARFF(&sb, d); err != nil {
		t.Fatal(err)
	}
	got, err := readARFF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Instances {
		if got.Instances[i].Values[0] != d.Instances[i].Values[0] {
			t.Errorf("value %d: %v != %v", i, got.Instances[i].Values[0], d.Instances[i].Values[0])
		}
	}
}

func TestARFFComments(t *testing.T) {
	src := `% a comment
@relation demo

@attribute x numeric
@attribute class {a,b}

@data
% another comment
1.5,a
2.5,b
`
	d, err := readARFF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Instances[1].Class != 1 {
		t.Fatalf("parsed %d instances", d.Len())
	}
}

func TestARFFParseErrors(t *testing.T) {
	cases := map[string]string{
		"no data section":    "@relation r\n@attribute x numeric\n@attribute class {a,b}\n",
		"class not nominal":  "@relation r\n@attribute x numeric\n@attribute class numeric\n@data\n",
		"too few attributes": "@relation r\n@attribute class {a,b}\n@data\n",
		"bad field count":    "@relation r\n@attribute x numeric\n@attribute class {a,b}\n@data\n1,2,a\n",
		"unknown class":      "@relation r\n@attribute x numeric\n@attribute class {a,b}\n@data\n1,zzz\n",
		"bad numeric":        "@relation r\n@attribute x numeric\n@attribute class {a,b}\n@data\nqq,a\n",
		"bad nominal":        "@relation r\n@attribute x {u,v}\n@attribute class {a,b}\n@data\nw,a\n",
		"bad attribute type": "@relation r\n@attribute x matrix\n@attribute class {a,b}\n@data\n",
		"garbage header":     "@relation r\nnonsense\n@data\n",
	}
	for name, src := range cases {
		if _, err := readARFF(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestARFFMissingClassNotAllowed(t *testing.T) {
	// '?' in the class column is rejected: concept learning requires
	// labelled instances.
	src := "@relation r\n@attribute x numeric\n@attribute class {a,b}\n@data\n1,?\n"
	if _, err := readARFF(strings.NewReader(src)); err == nil {
		t.Fatal("missing class label should be rejected")
	}
}
