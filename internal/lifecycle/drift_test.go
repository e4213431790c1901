package lifecycle

import (
	"math"
	"testing"
)

// observeN feeds n copies of one sample/verdict pair.
func observeN(t *Tracker, det string, n int, sample []float64, verdict bool) {
	for i := 0; i < n; i++ {
		t.Observe(det, [][]float64{sample}, []bool{verdict})
	}
}

func findRow(t *testing.T, rows []DriftRow, det string) DriftRow {
	t.Helper()
	for _, r := range rows {
		if r.Detector == det {
			return r
		}
	}
	t.Fatalf("no row for detector %q in %+v", det, rows)
	return DriftRow{}
}

func TestFeatureKeyTotality(t *testing.T) {
	cases := []struct {
		v    float64
		want int64
	}{
		{math.NaN(), 1 << 62},
		{math.Inf(1), 1 << 60},
		{math.Inf(-1), 1 << 60},
		{0, 0},
		{math.Copysign(0, -1), 0},
		{1, 1 << 20},
		{-1, 1 << 20},    // sign dropped
		{2, 1 << 21},     // next power of two, next bucket
		{0.5, 1 << 19},   // previous power of two, previous bucket
		{1e-300, 1 << 0}, // clamped at the bottom
		{1e300, 1 << 58}, // clamped at the top
		{5e-324, 1 << 0}, // subnormal floor
		{1.75, 1 << 20},  // same magnitude class as 1
	}
	for _, c := range cases {
		if got := FeatureKey(c.v); got != c.want {
			t.Errorf("FeatureKey(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// Non-finite classes are distinct from every finite class.
	if FeatureKey(math.NaN()) == FeatureKey(math.Inf(1)) {
		t.Error("NaN and Inf share a bucket")
	}
	if FeatureKey(math.Inf(1)) == FeatureKey(1e300) {
		t.Error("Inf and the largest finite class share a bucket")
	}
}

// TestDriftEmptyWindows pins the verdicts when one or both windows are
// empty: no baseline at all, a detector absent from the baseline (new),
// and a detector absent from the current window (missing).
func TestDriftEmptyWindows(t *testing.T) {
	tr := NewTracker(DriftConfig{})

	// No baseline frozen: everything is no-baseline.
	observeN(tr, "a", 2*minEvals, []float64{1}, false)
	row := findRow(t, tr.Report(), "a")
	if row.Verdict != VerdictNoBaseline {
		t.Fatalf("pre-baseline verdict = %q, want %q", row.Verdict, VerdictNoBaseline)
	}

	tr.Baseline()

	// "a" has baseline mass but no current traffic: missing.
	row = findRow(t, tr.Report(), "a")
	if row.Verdict != VerdictMissing {
		t.Fatalf("missing-detector verdict = %q, want %q", row.Verdict, VerdictMissing)
	}

	// "b" exists only after the baseline (a candidate-only detector):
	// new, regardless of how much traffic it has.
	observeN(tr, "b", minEvals, []float64{1}, false)
	row = findRow(t, tr.Report(), "b")
	if row.Verdict != VerdictNew {
		t.Fatalf("new-detector verdict = %q, want %q", row.Verdict, VerdictNew)
	}

	// "a" with thin current traffic, one evaluation short of minEvals:
	// insufficient, not drift — even though its distributions are far
	// apart.
	observeN(tr, "a", minEvals-1, []float64{1e9}, true)
	row = findRow(t, tr.Report(), "a")
	if row.Verdict != VerdictInsufficient {
		t.Fatalf("thin-window verdict = %q, want %q", row.Verdict, VerdictInsufficient)
	}
}

// TestDriftSingleBucketMass pins the comparator on degenerate
// distributions whose whole mass sits in one bucket: identical buckets
// are zero distance, disjoint buckets are maximal distance.
func TestDriftSingleBucketMass(t *testing.T) {
	tr := NewTracker(DriftConfig{MaxFeatureDistance: 0.5})
	observeN(tr, "same", 50, []float64{1}, false)
	observeN(tr, "moved", 50, []float64{1}, false)
	tr.Baseline()
	observeN(tr, "same", 50, []float64{1.5}, false) // same magnitude class
	observeN(tr, "moved", 50, []float64{1e6}, false)

	row := findRow(t, tr.Report(), "same")
	if row.Verdict != VerdictOK || row.FeatureDistance != 0 {
		t.Fatalf("same-bucket row = %+v, want ok at distance 0", row)
	}
	row = findRow(t, tr.Report(), "moved")
	if row.Verdict != VerdictFeatureDrift || row.FeatureDistance != 1 {
		t.Fatalf("moved-bucket row = %+v, want feature drift at distance 1", row)
	}
	if row.FeatureIndex != 0 {
		t.Fatalf("FeatureIndex = %d, want 0", row.FeatureIndex)
	}
}

// TestDriftNaNFeature pins NaN handling end to end: NaN mass appearing
// in a feature is a distribution shift like any other, not a crash or
// a silent drop.
func TestDriftNaNFeature(t *testing.T) {
	tr := NewTracker(DriftConfig{MaxFeatureDistance: 0.3})
	observeN(tr, "d", 100, []float64{1, 2}, false)
	tr.Baseline()
	// Half the current window's second feature went NaN.
	observeN(tr, "d", 50, []float64{1, 2}, false)
	observeN(tr, "d", 50, []float64{1, math.NaN()}, false)

	row := findRow(t, tr.Report(), "d")
	if row.Verdict != VerdictFeatureDrift {
		t.Fatalf("NaN-mass verdict = %q (distance %.3f), want %q", row.Verdict, row.FeatureDistance, VerdictFeatureDrift)
	}
	if row.FeatureIndex != 1 {
		t.Fatalf("FeatureIndex = %d, want 1 (the NaN feature)", row.FeatureIndex)
	}
	if row.FeatureDistance != 0.5 {
		t.Fatalf("FeatureDistance = %v, want exactly 0.5 (half the mass moved)", row.FeatureDistance)
	}
}

// TestDriftAlarmRate pins the alarm-rate channel at its fixed
// threshold and the combined verdict.
func TestDriftAlarmRate(t *testing.T) {
	tr := NewTracker(DriftConfig{MaxFeatureDistance: 0.5})
	observeN(tr, "d", 100, []float64{1}, false) // 0% alarms
	tr.Baseline()
	observeN(tr, "d", 10, []float64{1}, true) // 10% alarms, same feature class
	observeN(tr, "d", 90, []float64{1}, false)

	row := findRow(t, tr.Report(), "d")
	if row.Verdict != VerdictOK || row.AlarmDelta != maxAlarmDelta {
		t.Fatalf("row = %+v, want ok at an alarm delta of exactly %v", row, maxAlarmDelta)
	}
	observeN(tr, "d", 100, []float64{1}, true) // 55% alarms
	row = findRow(t, tr.Report(), "d")
	if row.Verdict != VerdictAlarmDrift {
		t.Fatalf("verdict = %q, want %q", row.Verdict, VerdictAlarmDrift)
	}
	if row.AlarmDelta != 0.55 {
		t.Fatalf("AlarmDelta = %v, want 0.55", row.AlarmDelta)
	}

	// Shift the features too: the combined verdict.
	observeN(tr, "d", 400, []float64{1e9}, true)
	row = findRow(t, tr.Report(), "d")
	if row.Verdict != VerdictBothDrift {
		t.Fatalf("verdict = %q, want %q", row.Verdict, VerdictBothDrift)
	}
}

// TestDriftReportDeterminism pins that Report is a pure function of the
// observations: same traffic, same rows, sorted by detector.
func TestDriftReportDeterminism(t *testing.T) {
	build := func() *Tracker {
		tr := NewTracker(DriftConfig{})
		observeN(tr, "b", minEvals, []float64{3, math.Inf(1)}, true)
		observeN(tr, "a", minEvals, []float64{1, 2}, false)
		tr.Baseline()
		observeN(tr, "b", minEvals, []float64{3, math.NaN()}, false)
		observeN(tr, "a", minEvals, []float64{1, 2}, false)
		return tr
	}
	r1, r2 := build().Report(), build().Report()
	if len(r1) != 2 || r1[0].Detector != "a" || r1[1].Detector != "b" {
		t.Fatalf("rows not sorted by detector: %+v", r1)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("row %d differs across identical runs:\n%+v\n%+v", i, r1[i], r2[i])
		}
	}
}

// TestTrackerReset pins that Reset drops both windows.
func TestTrackerReset(t *testing.T) {
	tr := NewTracker(DriftConfig{})
	observeN(tr, "d", 10, []float64{1}, false)
	tr.Baseline()
	observeN(tr, "d", 10, []float64{1}, false)
	tr.Reset()
	if tr.HasBaseline() {
		t.Fatal("baseline survived Reset")
	}
	if rows := tr.Report(); len(rows) != 0 {
		t.Fatalf("rows after Reset: %+v", rows)
	}
}
