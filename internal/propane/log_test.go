package propane

import (
	"context"
	"strings"
	"testing"
)

func TestLogRoundTrip(t *testing.T) {
	camp, err := Run(context.Background(), &toyTarget{}, toySpec())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteLog(&sb, camp); err != nil {
		t.Fatal(err)
	}
	got, err := readLog(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Target != camp.Target || got.Spec.Dataset != camp.Spec.Dataset ||
		got.Spec.Module != camp.Spec.Module ||
		got.Spec.InjectAt != camp.Spec.InjectAt || got.Spec.SampleAt != camp.Spec.SampleAt {
		t.Fatalf("header mismatch: %+v", got.Spec)
	}
	if len(got.VarNames) != len(camp.VarNames) {
		t.Fatalf("var names = %v", got.VarNames)
	}
	if len(got.Records) != len(camp.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(camp.Records))
	}
	for i := range camp.Records {
		a, b := camp.Records[i], got.Records[i]
		if a.TestCase != b.TestCase || a.Var != b.Var || a.Bit != b.Bit ||
			a.InjectionTime != b.InjectionTime || a.Injected != b.Injected ||
			a.Sampled != b.Sampled || a.Failure != b.Failure || a.Crashed != b.Crashed {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
		if len(a.State) != len(b.State) {
			t.Fatalf("record %d state arity", i)
		}
		for j := range a.State {
			if a.State[j] != b.State[j] {
				t.Fatalf("record %d state[%d]: %v != %v", i, j, a.State[j], b.State[j])
			}
		}
	}
}

func TestLogUnsampledRecord(t *testing.T) {
	c := &Campaign{
		Target:   "T",
		Spec:     Spec{Dataset: "D", Module: "M", InjectAt: Entry, SampleAt: Exit},
		VarNames: []string{"a"},
		Records: []Record{
			{TestCase: 1, Var: "a", Bit: 2, InjectionTime: 3, Injected: true, Crashed: true, Failure: true},
		},
	}
	var sb strings.Builder
	if err := WriteLog(&sb, c); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "state=") {
		t.Fatal("unsampled record must not serialise a state vector")
	}
	got, err := readLog(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	r := got.Records[0]
	if r.Sampled || r.State != nil || !r.Crashed || !r.Failure {
		t.Fatalf("record = %+v", r)
	}
}

func TestLogParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad location":  "#inject Sideways\n",
		"bad field":     "RUN notafield\n",
		"bad int":       "RUN tc=xyz\n",
		"bad bool":      "RUN inj=2\n",
		"bad state":     "RUN state=1,bad\n",
		"unknown field": "RUN zz=1\n",
		"garbage line":  "WHAT is this\n",
	}
	for name, src := range cases {
		if _, err := readLog(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLogSpecialFloats(t *testing.T) {
	c := &Campaign{
		Target:   "T",
		Spec:     Spec{Dataset: "D", Module: "M", InjectAt: Entry, SampleAt: Entry},
		VarNames: []string{"a", "b"},
		Records: []Record{
			{Var: "a", Injected: true, Sampled: true, State: []float64{1e308, -5e-324}},
		},
	}
	var sb strings.Builder
	if err := WriteLog(&sb, c); err != nil {
		t.Fatal(err)
	}
	got, err := readLog(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Records[0].State[0] != 1e308 || got.Records[0].State[1] != -5e-324 {
		t.Fatalf("state = %v", got.Records[0].State)
	}
}
