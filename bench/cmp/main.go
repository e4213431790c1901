// Command cmp compares two benchmark result files, A (the parent) and
// B (the change). Run it from the bench directory:
//
//	go run ./cmp results/seed-1.json results/seed-2.json
//
// For every workload and metric in both files it prints each side's
// median and quartiles and a verdict judged by the bounds in
// BENCHMARK.json (-bounds, default ../BENCHMARK.json):
//
//   - unresolved: the spread (interquartile range over median, the
//     wider of the two sides) exceeds the bound, so the samples cannot
//     tell a change from noise, unless every B sample beats every A
//     sample, which is better;
//   - worse or better: B's median is worse or better than A's by more
//     than the bound;
//   - unchanged: anything else.
//
// The samples are a file's reps, or for a file of several rounds
// (bench --rounds) the rounds' medians, so that the spread is the one
// between runs. A claimed gain needs the paired runs bench/README.md
// describes. Per-layer metrics have no bound and are shown for
// information. The command exits 1 on any worse verdict or any rise in
// a workload's failure ratio.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"edem/bench/internal/report"
)

func main() {
	fs := flag.NewFlagSet("cmp", flag.ExitOnError)
	bounds := fs.String("bounds", "../BENCHMARK.json", "BENCHMARK.json with the metric bounds")
	_ = fs.Parse(os.Args[1:])
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cmp [-bounds BENCHMARK.json] A.json B.json")
		os.Exit(2)
	}
	bm, err := report.ReadBenchmark(*bounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmp:", err)
		os.Exit(2)
	}
	a, err := report.ReadSuite(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmp:", err)
		os.Exit(2)
	}
	b, err := report.ReadSuite(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmp:", err)
		os.Exit(2)
	}
	if regressed := compare(os.Stdout, bm, a, b); regressed {
		os.Exit(1)
	}
}

// Verdicts.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	info       = "-"
)

// verdict judges B against A for one metric.
func verdict(spec report.MetricSpec, a, b *report.Metric) string {
	if spec.Bound == 0 {
		return info
	}
	if max(a.Spread(), b.Spread()) > spec.Bound {
		if allBetter(spec, b.Samples(), a.Samples()) {
			return better
		}
		return unresolved
	}
	gain := (b.Value - a.Value) / a.Value // > 0: B is higher
	if spec.Better != "higher" {
		gain = -gain
	}
	switch {
	case gain < -spec.Bound:
		return worse
	case gain > spec.Bound:
		return better
	}
	return unchanged
}

// allBetter reports whether every sample of xs beats every sample of ys.
func allBetter(spec report.MetricSpec, xs, ys []float64) bool {
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	for _, x := range xs {
		for _, y := range ys {
			if !spec.IsBetter(x, y) {
				return false
			}
		}
	}
	return true
}

func describe(e report.Env) string {
	return fmt.Sprintf("%s seed %d, %d round(s), %d CPUs, %s", e.Started, e.Seed, max(e.Rounds, 1), e.NProc, e.Go)
}

// compare prints the comparison table and reports whether B regressed.
func compare(w io.Writer, bm *report.Benchmark, a, b *report.Suite) bool {
	regressed := false
	fmt.Fprintf(w, "A: %s\nB: %s\n\n", describe(a.Env), describe(b.Env))
	fmt.Fprintf(w, "%-14s %-28s %12s %25s %12s %25s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "verdict")
	for _, name := range a.WorkloadNames() {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-14s missing from B\n", name)
			continue
		}
		for _, list := range [][]report.MetricSpec{bm.EndToEnd, bm.PerLayer} {
			for _, spec := range list {
				ma, mb := wa.Metrics[spec.Name], wb.Metrics[spec.Name]
				if ma == nil || mb == nil {
					continue
				}
				v := verdict(spec, ma, mb)
				regressed = regressed || v == worse
				fmt.Fprintf(w, "%-14s %-28s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g  %s\n",
					name, spec.Name+" ("+spec.Unit+")", ma.Value, ma.Q1, ma.Q3, mb.Value, mb.Q1, mb.Q3, v)
			}
		}
		fa, fb := wa.FailRatio(), wb.FailRatio()
		v := unchanged
		if fb > fa {
			v, regressed = worse, true
		} else if fb < fa {
			v = better
		}
		fmt.Fprintf(w, "%-14s %-28s %12.5g %25s %12.5g %25s  %s\n", name, "fail_ratio", fa, "", fb, "", v)
	}
	return regressed
}
