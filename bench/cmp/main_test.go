package main

import (
	"io"
	"testing"

	"edem/bench/internal/report"
)

var (
	lower  = report.MetricSpec{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher = report.MetricSpec{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1}
	layer  = report.MetricSpec{Name: "refine.busy_s", Unit: "s", Better: "lower"}
)

func m(reps ...float64) *report.Metric { return report.NewMetric("", reps) }

// rounds is a metric measured over several rounds, each with the given
// median and reps 40% either side of it.
func rounds(medians ...float64) *report.Metric {
	var ws []*report.Workload
	for _, v := range medians {
		ws = append(ws, &report.Workload{Metrics: map[string]*report.Metric{"x": m(0.6*v, v, 1.4*v)}})
	}
	return report.MergeRounds(ws).Metrics["x"]
}

func TestVerdicts(t *testing.T) {
	cases := []struct {
		name string
		spec report.MetricSpec
		a, b *report.Metric
		want string
	}{
		{"steady, same", lower, m(100, 101, 102), m(101, 102, 103), unchanged},
		{"steady, slower past the bound", lower, m(100, 100.5, 101), m(120, 120.5, 121), worse},
		{"steady, slower within the bound", lower, m(100, 100.5, 101), m(105, 105.5, 106), unchanged},
		{"faster within the bound", lower, m(100, 101, 102, 99), m(95, 99.5, 94, 96), unchanged},
		{"faster past the bound", lower, m(100, 101, 102), m(80, 81, 82), better},
		// With steady reps, winning every pairing is not enough: two runs
		// of the same code drift apart by more than their reps spread.
		{"every B rep beats every A rep", lower, m(100, 101, 102), m(93, 94, 95), unchanged},
		{"higher is better, B lower", higher, m(1000, 1001, 1002), m(800, 801, 802), worse},
		{"higher is better, B higher", higher, m(1000, 1001, 1002), m(1200, 1201, 1202), better},
		// A spread of 30% cannot resolve a 10% bound...
		{"noisy", lower, m(80, 100, 110, 130), m(85, 105, 115, 135), unresolved},
		// ...unless B wins every pairing outright.
		{"noisy but separated", lower, m(180, 200, 210, 230), m(80, 100, 110, 130), better},
		{"per-layer metrics have no bound", layer, m(1, 2, 3), m(30, 40, 50), info},
		// Over several rounds the spread is the one between the rounds'
		// medians, however noisy the reps within each round.
		{"noisy reps, steady rounds", lower, rounds(100, 101, 102, 103), rounds(101, 102, 103, 104), unchanged},
		{"noisy rounds", lower, rounds(80, 100, 110, 130), rounds(85, 105, 115, 135), unresolved},
		{"noisy rounds, every B round better", lower, rounds(180, 200, 210, 230), rounds(80, 100, 110, 130), better},
	}
	for _, c := range cases {
		if got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q (A spread %.3f, B spread %.3f)", c.name, got, c.want, c.a.Spread(), c.b.Spread())
		}
	}
}

func TestCompareFailsOnWorseOrMoreFailures(t *testing.T) {
	bm := &report.Benchmark{EndToEnd: []report.MetricSpec{lower}}
	suite := func(failed int, latency *report.Metric) *report.Suite {
		return &report.Suite{Workloads: map[string]*report.Workload{
			"gen-mg": {Attempted: 10, Failed: failed, Metrics: map[string]*report.Metric{"latency_ms": latency}},
		}}
	}
	base := suite(0, m(100, 101, 102))
	if compare(io.Discard, bm, base, suite(0, m(101, 101, 102))) {
		t.Error("an unchanged run regressed")
	}
	if !compare(io.Discard, bm, base, suite(0, m(130, 131, 132))) {
		t.Error("a 30% slower run did not regress")
	}
	if !compare(io.Discard, bm, base, suite(1, m(100, 101, 102))) {
		t.Error("a run with a new failure did not regress")
	}
}
