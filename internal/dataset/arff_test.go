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
	d.Instances[3].Values[1] = 1e308
	d.Instances[7].Values[2] = -1e308

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
			if av, bv := a.Values[j], b.Values[j]; av != bv {
				t.Fatalf("instance %d value %d: %v != %v", i, j, av, bv)
			}
		}
	}
}

func TestARFFRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		attrs := []Attribute{NumericAttr("a"), NumericAttr("b")}
		d := New("prop", attrs, []string{"c0", "c1", "c2"})
		rng := stats.NewRNG(seed)
		for i := 0; i < n; i++ {
			v := rng.Float64()*2e6 - 1e6
			if rng.Intn(10) == 0 {
				v = math.Inf(1 - 2*rng.Intn(2))
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
				if d.Instances[i].Values[j] != got.Instances[i].Values[j] {
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
		NumericAttr("it's"),
	}, []string{"on off", "half,way"})
	d.MustAdd(Instance{Values: []float64{1.5, 1}, Class: 1, Weight: 1})
	var sb strings.Builder
	if err := WriteARFF(&sb, d); err != nil {
		t.Fatal(err)
	}
	got, err := readARFF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("readARFF: %v\n%s", err, sb.String())
	}
	if got.Attrs[0].Name != "weird name" || got.Attrs[1].Name != "it's" {
		t.Errorf("attr names = %q, %q", got.Attrs[0].Name, got.Attrs[1].Name)
	}
	if got.ClassValues[0] != "on off" || got.ClassValues[1] != "half,way" {
		t.Errorf("class domain = %v", got.ClassValues)
	}
	if got.Instances[0].Class != 1 {
		t.Errorf("class = %v", got.Instances[0].Class)
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
		"bad attribute type": "@relation r\n@attribute x matrix\n@attribute class {a,b}\n@data\n",
		"garbage header":     "@relation r\nnonsense\n@data\n",
	}
	for name, src := range cases {
		if _, err := readARFF(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

// TestARFFRefusesOutsideDomain: the reader accepts only the training
// domain, and each refusal says what it refused.
func TestARFFRefusesOutsideDomain(t *testing.T) {
	const header = "@relation r\n@attribute x numeric\n@attribute class {a,b}\n@data\n"
	cases := map[string]struct{ src, want string }{
		"missing value":     {header + "?,a\n", "missing value"},
		"quoted missing":    {header + "'?',b\n", "missing value"},
		"instance weight":   {header + "1,a,{2}\n", "instance weight"},
		"unit weight":       {header + "1,a, {1}\n", "instance weight"},
		"nominal attribute": {"@relation r\n@attribute m {u,v}\n@attribute class {a,b}\n@data\nu,a\n", "nominal attribute"},
		"NaN":               {header + "NaN,a\n", "NaN"},
	}
	for name, c := range cases {
		_, err := readARFF(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, c.want)
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
