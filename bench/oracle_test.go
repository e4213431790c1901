package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"edem/bench/internal/report"
	"edem/internal/predicate"
	"edem/internal/propane"
	"edem/internal/serve"
)

// The runner speaks edem's formats with its own standard-library code so
// that it compiles against no internal API. These tests hold that code
// to the real implementations.

// awkward values: the non-finite states corrupted runs produce, signed
// zero, extremes and ordinary numbers.
var awkward = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1e308, -1e308, 5e-324, 0.1, 1.0000000000000002, -7, 89.25, 1e21}

func samples() [][]float64 {
	var out [][]float64
	for i := range awkward {
		s := make([]float64, 3)
		for j := range s {
			s[j] = awkward[(i+j*5)%len(awkward)]
		}
		out = append(out, s)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestBinaryRequestDecodesInServer(t *testing.T) {
	in := samples()
	br, err := serve.DecodeBinaryRequest(encodeBinary("FG-A2", in))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Release()
	if br.Detector != "FG-A2" || len(br.Samples) != len(in) {
		t.Fatalf("decoded %q with %d samples", br.Detector, len(br.Samples))
	}
	for i := range in {
		if !sameBits(br.Samples[i], in[i]) {
			t.Errorf("sample %d: %v, sent %v", i, br.Samples[i], in[i])
		}
	}
}

func TestJSONRequestDecodesInServer(t *testing.T) {
	in := samples()
	var req serve.EvalRequest
	if err := json.Unmarshal(encodeJSON("7Z-B2", in), &req); err != nil {
		t.Fatal(err)
	}
	if req.Detector != "7Z-B2" || len(req.Samples) != len(in) {
		t.Fatalf("decoded %q with %d samples", req.Detector, len(req.Samples))
	}
	for i := range in {
		if !sameBits(req.Samples[i], in[i]) {
			t.Errorf("sample %d: %v, sent %v", i, req.Samples[i], in[i])
		}
	}
}

func TestBinaryResponseFromServerEncoder(t *testing.T) {
	verdicts := []bool{true, false, false, true, true, false, false, false, true}
	frame, err := serve.EncodeBinaryResponse(nil, &serve.EvalResponse{
		Verdicts: verdicts, Alarms: []int{1, 4, 5, 9}, Evaluated: len(verdicts)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := decodeBinaryResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.check(verdicts); err != nil {
		t.Error(err)
	}
	if err := r.check(append([]bool{false}, verdicts[1:]...)); err == nil {
		t.Error("a wrong verdict passed the check")
	}
	if _, err := decodeBinaryResponse(frame[:len(frame)-1]); err == nil {
		t.Error("a truncated frame decoded")
	}
}

// The runner's verdicts must be Predicate.Eval's on every value a
// faulty target can produce, for every operator.
func TestOracleMatchesPredicateEval(t *testing.T) {
	p := &predicate.Predicate{Name: "P", Vars: []string{"a", "b", "c"}, Clauses: []predicate.Clause{
		{{Var: "a", Index: 0, Op: predicate.LE, Threshold: 0.1}, {Var: "b", Index: 1, Op: predicate.GT, Threshold: -7}},
		{{Var: "c", Index: 2, Op: predicate.EQ, Threshold: 0}},
		{{Var: "b", Index: 1, Op: predicate.NE, Threshold: 1e21}, {Var: "a", Index: 0, Op: predicate.GT, Threshold: 89.25}},
		{{Var: "c", Index: 5, Op: predicate.LE, Threshold: 1}},
	}}
	path := filepath.Join(t.TempDir(), "bundle.json")
	b := &serve.Bundle{Version: serve.BundleVersion, Detectors: []serve.BundleEntry{
		{ID: "P", Module: "M", Location: "Exit", Predicate: p}}}
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	dets, err := readBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range awkward {
		for _, bv := range awkward {
			for _, c := range awkward[:6] {
				s := []float64{a, bv, c}
				if got, want := dets["P"].eval(s), p.Eval(s); got != want {
					t.Errorf("%v: runner says %v, Predicate.Eval %v", s, got, want)
				}
			}
		}
	}
}

func TestStatesFromPropaneLog(t *testing.T) {
	c := &propane.Campaign{Target: "T", VarNames: []string{"x", "y", "z"}}
	for i, s := range samples() {
		c.Records = append(c.Records, propane.Record{TestCase: i, Var: "x", Injected: true, Sampled: true, State: s})
	}
	c.Records = append(c.Records, propane.Record{Var: "x", Injected: true}) // not sampled
	var sb strings.Builder
	if err := propane.WriteLog(&sb, c); err != nil {
		t.Fatal(err)
	}
	got, err := parseStates(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples()) {
		t.Fatalf("%d states, want %d", len(got), len(samples()))
	}
	for i, s := range samples() {
		if !sameBits(got[i], s) {
			t.Errorf("state %d: %v, want %v", i, got[i], s)
		}
	}
}

func TestParseServingLine(t *testing.T) {
	addr, err := parseServingLine("serving 2 detectors on http://127.0.0.1:40123/ (policy fail-closed, queue 64, deadline 2s)")
	if err != nil || addr != "127.0.0.1:40123" {
		t.Errorf("got %q, %v", addr, err)
	}
	addr, err = parseServingLine("serving 1 detectors on http://[::1]:8080/ (policy fail-open, queue 1, deadline 1s)")
	if err != nil || addr != "[::1]:8080" {
		t.Errorf("got %q, %v", addr, err)
	}
	if _, err := parseServingLine("serve: draining (timeout 10s)"); err == nil {
		t.Error("parsed an address out of a drain line")
	}
}

func TestParseStatCPU(t *testing.T) {
	line := "4242 (edem (serve) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 250 75 0 0 20 0 9 0 100 0 0"
	got, err := parseStatCPU([]byte(line))
	if err != nil || got.Seconds() != 3.25 {
		t.Errorf("got %v, %v; want 3.25s", got, err)
	}
}

func TestShuffleIsSeededPermutation(t *testing.T) {
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i
	}
	a, b, c := append([]int(nil), xs...), append([]int(nil), xs...), append([]int(nil), xs...)
	shuffle(a, 1)
	shuffle(b, 1)
	shuffle(c, 2)
	if !equal(a, b) || equal(a, c) || equal(a, xs) {
		t.Error("shuffle is not a seeded permutation")
	}
	sort.Ints(a)
	if !equal(a, xs) {
		t.Error("shuffle lost elements")
	}
}

func equal(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// The runner, BENCHMARK.json and pins.json must name the same workloads,
// and every campaign seed the benchmark can pick must be pinned.
func TestBenchmarkDeclaresTheRunnersWorkloads(t *testing.T) {
	bm, err := report.ReadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the runner has %d", len(bm.Workloads), len(workloads))
	}
	for _, w := range bm.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the runner", w.Name)
		}
	}
	for _, g := range []genSpec{genMG, genKV} {
		for seed := uint64(0); seed < 20; seed++ {
			s := campaignSeed(seed)
			if pins[g.name][strconv.FormatUint(s, 10)] == "" {
				t.Errorf("%s: campaign seed %d (benchmark seed %d) has no pinned digest", g.name, s, seed)
			}
		}
	}
	if campaignSeed(1) != 1 {
		t.Error("benchmark seed 1 must run campaign seed 1")
	}
}
