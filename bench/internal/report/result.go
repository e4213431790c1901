package report

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Suite is one result file: the environment it was measured in and,
// per workload, every rep of every metric.
type Suite struct {
	Env       Env                  `json:"env"`
	Workloads map[string]*Workload `json:"workloads"`
}

// Env records what the numbers depend on besides the code.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Rounds     int    `json:"rounds"`
	Trace      bool   `json:"trace"`
	Started    string `json:"started"`
}

// Workload is the outcome of one workload: whether its outputs were
// correct, how many operations it attempted and how many failed, and
// its metrics.
type Workload struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]*Metric `json:"metrics"`
}

// Metric keeps every rep of one metric next to the summary computed
// from them. For one run, Value is the median of the reps and the
// quartiles and count are the reps'. For several rounds (runs) of the
// workload, Runs holds each round's median, and Value, the quartiles
// and the count summarise those instead: the run-to-run spread.
type Metric struct {
	Unit  string    `json:"unit"`
	Value float64   `json:"value"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	N     int       `json:"n"`
	Reps  []float64 `json:"reps"`
	Runs  []float64 `json:"runs,omitempty"`
}

// NewMetric summarises reps.
func NewMetric(unit string, reps []float64) *Metric {
	q1, q3 := Quartiles(reps)
	return &Metric{Unit: unit, Value: Median(reps), Q1: q1, Q3: q3, N: len(reps), Reps: reps}
}

// Samples returns what the summary describes: the run medians of a
// metric measured over several rounds, or else the reps.
func (m *Metric) Samples() []float64 {
	if len(m.Runs) > 0 {
		return m.Runs
	}
	return m.Reps
}

// Spread is the interquartile range as a share of the median.
func (m *Metric) Spread() float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Value
}

// MergeRounds combines the outcomes of several rounds of one workload:
// counts add up, and each metric keeps every rep and is summarised over
// the rounds' medians. A metric missing from a round is left out.
func MergeRounds(rounds []*Workload) *Workload {
	out := &Workload{Correct: true, Metrics: make(map[string]*Metric)}
	for _, w := range rounds {
		out.Correct = out.Correct && w.Correct
		out.Attempted += w.Attempted
		out.Failed += w.Failed
		out.Errors = append(out.Errors, w.Errors...)
	}
	for name := range rounds[0].Metrics {
		var reps, runs []float64
		for _, w := range rounds {
			m := w.Metrics[name]
			if m == nil {
				break
			}
			reps = append(reps, m.Reps...)
			runs = append(runs, m.Value)
		}
		if len(runs) < len(rounds) {
			continue
		}
		m := NewMetric(rounds[0].Metrics[name].Unit, runs)
		m.Reps, m.Runs = reps, runs
		out.Metrics[name] = m
	}
	return out
}

// FailRatio is failed over attempted operations.
func (w *Workload) FailRatio() float64 {
	if w.Attempted == 0 {
		return 1
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// ReadSuite loads a result file.
func ReadSuite(path string) (*Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// WriteFile writes the suite as indented JSON.
func (s *Suite) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WorkloadNames returns the suite's workloads in name order.
func (s *Suite) WorkloadNames() []string {
	names := make([]string, 0, len(s.Workloads))
	for n := range s.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MetricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// IsBetter reports whether value a is better than value b.
func (m MetricSpec) IsBetter(a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// WorkloadSpec is one workload as BENCHMARK.json declares it.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Benchmark is the part of BENCHMARK.json the tools read.
type Benchmark struct {
	Workloads []WorkloadSpec `json:"workloads"`
	EndToEnd  []MetricSpec   `json:"end_to_end"`
	PerLayer  []MetricSpec   `json:"per_layer"`
}

// ReadBenchmark loads BENCHMARK.json.
func ReadBenchmark(path string) (*Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
