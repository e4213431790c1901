package report

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(v, n=4),
// the numbers a reader of the result files will check them against.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v              []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
		{[]float64{2.5, 1, 4, 8, 3, 6, 7, 5, 9, 10}, 2.875, 5.5, 8.25},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		q1, q3 := Quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 || Median(c.v) != c.median {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.v, q1, Median(c.v), q3, c.q1, c.median, c.q3)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Failed requests are +Inf and land in the tail, not the median.
	withFailures := append([]float64{math.Inf(1), math.Inf(1)}, v...)
	if got := Percentile(withFailures, 50); math.IsInf(got, 1) {
		t.Errorf("median with two failures = %v", got)
	}
	if got := Percentile(withFailures, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with two failures in 102 = %v, want +Inf", got)
	}
}

// A reported tail percentile must have at least ten samples beyond it.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99}, {24000, 99.9},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// Nearest rank: the samples beyond the percentile are those
		// ranked after it.
		if p := TailPercentile(c.n); p > 0 {
			v := make([]float64, c.n)
			for i := range v {
				v[i] = float64(i)
			}
			rank := Percentile(v, p)
			if beyond := c.n - 1 - int(rank); beyond < 10 {
				t.Errorf("TailPercentile(%d) = %v leaves %d samples beyond", c.n, p, beyond)
			}
		}
	}
}

func TestMergeRoundsSummarisesRunMedians(t *testing.T) {
	round := func(failed int, x []float64, extra bool) *Workload {
		w := &Workload{Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]*Metric{"x": NewMetric("ms", x)}}
		if extra {
			w.Metrics["only-here"] = NewMetric("ms", []float64{1})
		}
		return w
	}
	got := MergeRounds([]*Workload{
		round(0, []float64{1, 2, 30}, true),
		round(1, []float64{4, 5, 6}, false),
		round(0, []float64{7, 8, 9, 100}, false),
	})
	if got.Correct || got.Attempted != 30 || got.Failed != 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 30 1", got.Correct, got.Attempted, got.Failed)
	}
	x := got.Metrics["x"]
	if x.Unit != "ms" || x.Value != 5 || x.N != 3 || len(x.Reps) != 10 {
		t.Errorf("merged %+v: want unit ms, value 5 (median of medians 2, 5, 8.5), n 3, 10 reps", x)
	}
	if q1, q3 := Quartiles([]float64{2, 5, 8.5}); x.Q1 != q1 || x.Q3 != q3 {
		t.Errorf("quartiles %v..%v, want the run medians' %v..%v", x.Q1, x.Q3, q1, q3)
	}
	if _, ok := got.Metrics["only-here"]; ok {
		t.Error("a metric missing from a round was kept")
	}
}

func TestSelfTimesCountOverlappingChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "fabric", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "worker", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "worker", Start: 40, End: 90},
		{ID: 4, Parent: 2, Name: "lease", Start: 10, End: 20},
		{ID: 5, Parent: 1, Name: "late", Start: 95, End: 120}, // clipped to the parent
	}
	self := SelfTimes(spans)
	want := map[int]int64{1: 100 - 80 - 5, 2: 40, 3: 50, 4: 10, 5: 25}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	if got := Coverage(spans, "fabric"); math.Abs(got-0.85) > 1e-12 {
		t.Errorf("coverage = %v, want 0.85", got)
	}
}
