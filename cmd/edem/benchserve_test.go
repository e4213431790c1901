package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"edem/internal/predicate"
	"edem/internal/serve"
)

// TestCmdBenchServe smokes the load harness at the CLI boundary with a
// hand-built bundle and a tiny measurement window: the json and binary
// legs must run, and the snapshot must carry the percentile and throughput fields
// the perf trajectory is tracked by.
func TestCmdBenchServe(t *testing.T) {
	dir := t.TempDir()
	bundlePath := filepath.Join(dir, "bundle.json")
	outPath := filepath.Join(dir, "bench.json")
	bundle := &serve.Bundle{Version: serve.BundleVersion, Detectors: []serve.BundleEntry{{
		ID: "D1", Module: "M", Location: "Exit",
		Predicate: &predicate.Predicate{
			Name: "D1",
			Vars: []string{"a", "b"},
			Clauses: []predicate.Clause{
				{{Var: "a", Index: 0, Op: predicate.GT, Threshold: 50}},
				{{Var: "b", Index: 1, Op: predicate.LE, Threshold: -50}},
			},
		},
	}}}
	if err := bundle.WriteFile(bundlePath); err != nil {
		t.Fatal(err)
	}

	err := run([]string{"bench-serve", "-bundle", bundlePath, "-out", outPath,
		"-duration", "150ms", "-warmup", "30ms", "-conns", "2", "-batch", "8"})
	if err != nil {
		t.Fatalf("bench-serve: %v", err)
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Detector string  `json:"detector"`
		Batch    int     `json:"batch"`
		Speedup  float64 `json:"speedup_binary_vs_json"`
		Legs     []struct {
			Codec         string  `json:"codec"`
			Requests      int     `json:"requests"`
			ThroughputRPS float64 `json:"throughput_rps"`
			SamplesPerSec float64 `json:"samples_per_sec"`
			P50           int64   `json:"p50_us"`
			P99           int64   `json:"p99_us"`
			P999          int64   `json:"p999_us"`
		} `json:"legs"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Detector != "D1" || snap.Batch != 8 {
		t.Fatalf("snapshot config: %+v", snap)
	}
	if len(snap.Legs) != 2 {
		t.Fatalf("legs = %d, want 2 (one per codec)", len(snap.Legs))
	}
	want := map[string]bool{"json": false, "binary": false}
	for _, leg := range snap.Legs {
		key := leg.Codec
		if _, ok := want[key]; !ok {
			t.Fatalf("unexpected leg %q", key)
		}
		want[key] = true
		if leg.Requests <= 0 || leg.ThroughputRPS <= 0 || leg.SamplesPerSec <= 0 {
			t.Fatalf("leg %q has no throughput: %+v", key, leg)
		}
		if leg.P50 <= 0 || leg.P99 < leg.P50 || leg.P999 < leg.P99 {
			t.Fatalf("leg %q has inconsistent percentiles: %+v", key, leg)
		}
	}
	for key, seen := range want {
		if !seen {
			t.Fatalf("missing leg %q", key)
		}
	}
	if snap.Speedup <= 0 {
		t.Fatalf("speedup = %v", snap.Speedup)
	}
}

// TestCmdBenchServeRejectsBadFlags pins the argument contract.
func TestCmdBenchServeRejectsBadFlags(t *testing.T) {
	if err := run([]string{"bench-serve"}); err == nil {
		t.Fatal("missing -bundle accepted")
	}
	if err := run([]string{"bench-serve", "-bundle", "nope.json", "-conns", "0"}); err == nil {
		t.Fatal("zero -conns accepted")
	}
	bundlePath := filepath.Join(t.TempDir(), "bundle.json")
	bundle := &serve.Bundle{Version: serve.BundleVersion, Detectors: []serve.BundleEntry{{
		ID: "D1", Module: "M", Location: "Exit",
		Predicate: &predicate.Predicate{Name: "D1", Vars: []string{"v"}},
	}}}
	if err := bundle.WriteFile(bundlePath); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"bench-serve", "-bundle", bundlePath, "-detector", "NOPE"}); err == nil {
		t.Fatal("unknown detector accepted")
	}
}
