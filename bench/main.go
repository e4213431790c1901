// Command bench is edem's end-to-end benchmark. Run it from the
// repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload gen-mg --seed 1 --seconds 10 --trace 0
//
// It builds the edem binary from the checkout and drives it as child
// processes with CLI defaults, so it measures whatever the code under
// test does by default and compiles against no internal API. Each
// workload checks its outputs, and the last line of standard output is
// one JSON object with the workload's correctness, its attempted and
// failed operations and its metrics: the end-to-end metrics of
// BENCHMARK.json, or with --trace 1 the per-layer ones. A traced run
// also calls each layer's Go entry points in-process (bench/tracer)
// and writes its spans to bench/out/trace-<workload>.json.
//
// --workload all runs every workload in turn, and --rounds N repeats
// that N times and summarises each metric over the rounds' medians;
// that is how the result files under bench/results are made. See
// bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"edem/bench/internal/report"
)

// bench is the state shared by every workload of one invocation.
type bench struct {
	root    string // repository root (the working directory)
	work    string // scratch directory, removed at exit
	edem    string // the edem binary built from the checkout
	tracer  string // the in-process tracer, built only for traced runs
	seed    uint64
	seconds time.Duration
	trace   bool
	conns   int // load-generator connections: one per CPU
	procs   procList
}

// workload runs one named workload and returns its result. Set-up
// errors (the benchmark cannot run at all) are returned; failed
// operations are counted in the result instead.
type workload func(b *bench) (*report.Workload, error)

var workloads = map[string]workload{
	"gen-mg":        genWorkload(genMG),
	"gen-kv":        genWorkload(genKV),
	"serve-bin64":   serveWorkload(serveBin64),
	"serve-json512": serveWorkload(serveJSON512),
	"fabric-mg":     fabricWorkload(fabricMG),
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measurement time per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	rounds := fs.Int("rounds", 1, "times to run every named workload; metrics summarise the rounds' medians")
	out := fs.String("out", "", "result file (default bench/out/result-<workload>.json)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *rounds < 1 {
		fmt.Fprintln(os.Stderr, "bench: --rounds must be at least 1")
		return 2
	}
	bm, err := report.ReadBenchmark("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range bm.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			return 2
		}
	}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, conns: runtime.NumCPU()}
	defer b.procs.killAll()
	suite, err := b.runAll(names, *rounds, bm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out == "" {
		suffix := ""
		if b.trace {
			suffix = "-trace"
		}
		*out = filepath.Join("bench", "out", fmt.Sprintf("result-%s%s.json", *name, suffix))
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := suite.WriteFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := resultLine(suite, names, bm, b.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// runAll runs the named workloads in turn, rounds times over.
func (b *bench) runAll(names []string, rounds int, bm *report.Benchmark) (*report.Suite, error) {
	var err error
	if b.root, err = os.Getwd(); err != nil {
		return nil, err
	}
	if b.work, err = os.MkdirTemp("", "edem-bench-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	if err := b.build(); err != nil {
		return nil, err
	}
	suite := &report.Suite{
		Env:       environment(b),
		Workloads: make(map[string]*report.Workload),
	}
	suite.Env.Rounds = rounds
	runs := make(map[string][]*report.Workload)
	for r := 0; r < rounds; r++ {
		for _, n := range names {
			start := time.Now()
			w, err := workloads[n](b)
			b.procs.killAll()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", n, err)
			}
			// Keep the metrics BENCHMARK.json declares for this kind of
			// run, with its units; the rest were intermediate values.
			kept := make(map[string]*report.Metric)
			for _, spec := range specs(bm, b.trace) {
				if m := w.Metrics[spec.Name]; m != nil {
					m.Unit = spec.Unit
					kept[spec.Name] = m
				}
			}
			w.Metrics = kept
			runs[n] = append(runs[n], w)
			printTable(n, w, bm, time.Since(start))
		}
	}
	for n, ws := range runs {
		if rounds == 1 {
			suite.Workloads[n] = ws[0]
		} else {
			suite.Workloads[n] = report.MergeRounds(ws)
		}
	}
	return suite, nil
}

// build compiles edem from the checkout, and the tracer for traced
// runs. Neither build is timed.
func (b *bench) build() error {
	b.edem = filepath.Join(b.work, "edem")
	if err := goBuild(b.root, b.edem, "./cmd/edem"); err != nil {
		return err
	}
	if b.trace {
		b.tracer = filepath.Join(b.work, "tracer")
		return goBuild(filepath.Join(b.root, "bench"), b.tracer, "./tracer")
	}
	return nil
}

// goBuild builds the package pkg of the module in dir into out.
func goBuild(dir, out, pkg string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s in %s: %w\n%s", pkg, dir, err, msg)
	}
	return nil
}

// dir makes a fresh scratch directory for one operation.
func (b *bench) dir(prefix string) (string, error) {
	return os.MkdirTemp(b.work, prefix+"-")
}

func environment(b *bench) report.Env {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return report.Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpu,
		Go:         runtime.Version(),
		Seed:       b.seed,
		Seconds:    int(b.seconds / time.Second),
		Trace:      b.trace,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// specs returns the metrics this run reports: the end-to-end list, or
// the per-layer list for a traced run.
func specs(bm *report.Benchmark, trace bool) []report.MetricSpec {
	if trace {
		return bm.PerLayer
	}
	return bm.EndToEnd
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the one-line JSON result. A single workload
// reports its metrics by name; --workload all prefixes each with its
// workload.
func resultLine(s *report.Suite, names []string, bm *report.Benchmark, trace bool) (string, error) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, n := range names {
		w := s.Workloads[n]
		out.Correct = out.Correct && w.Correct
		out.Attempted += w.Attempted
		out.Failed += w.Failed
		for _, spec := range specs(bm, trace) {
			m, ok := w.Metrics[spec.Name]
			if !ok {
				return "", fmt.Errorf("%s: metric %s not measured", n, spec.Name)
			}
			key := spec.Name
			if len(names) > 1 {
				key = n + "/" + spec.Name
			}
			out.Metrics[key] = jsonMetric{Value: m.Value, Unit: spec.Unit}
		}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

// printTable writes a workload's metrics to stderr for a reader.
func printTable(name string, w *report.Workload, bm *report.Benchmark, took time.Duration) {
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d (%.1fs)\n",
		name, w.Correct, w.Attempted, w.Failed, took.Seconds())
	for _, e := range w.Errors {
		fmt.Fprintf(os.Stderr, "  error: %s\n", e)
	}
	keys := make([]string, 0, len(w.Metrics))
	for k := range w.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := w.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-26s %14.6g %-7s q1 %-12.6g q3 %-12.6g n %d\n", k, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
}
