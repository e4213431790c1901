package lifecycle

import (
	"math"
	"sort"
	"sync"

	"edem/internal/telemetry"
)

// FeatureKey maps one feature value to the non-negative int64 key
// whose telemetry power-of-two bucket represents the value's magnitude
// class. The mapping is total and deterministic — every float64,
// including the ones corrupted runs legitimately produce, has exactly
// one bucket:
//
//   - NaN        → bucket 63 (its own bucket: a NaN-mass shift is drift)
//   - ±Inf       → bucket 61
//   - 0 (and -0) → bucket 0
//   - finite v   → bucket clamp(ilogb(|v|)+21, 1, 59): one bucket per
//     power of two of |v| from 2^-20 up to 2^38, clamped beyond.
//
// Sign is deliberately dropped: the histograms track magnitude
// distributions, and a sign flip at equal magnitude shows up in the
// alarm-rate channel instead.
func FeatureKey(v float64) int64 {
	switch {
	case math.IsNaN(v):
		return 1 << 62
	case math.IsInf(v, 0):
		return 1 << 60
	case v == 0:
		return 0
	}
	b := math.Ilogb(math.Abs(v)) + 21
	if b < 1 {
		b = 1
	}
	if b > 59 {
		b = 59
	}
	return 1 << (b - 1)
}

// The fixed drift thresholds.
const (
	// minEvals is the per-detector evaluation count below which either
	// window is considered insufficient evidence.
	minEvals = 50
	// maxAlarmDelta is the absolute alarm-rate change past which the
	// alarm rate has drifted.
	maxAlarmDelta = 0.10
)

// DriftConfig tunes the drift verdict threshold. The zero value
// selects the default documented on the field.
type DriftConfig struct {
	// MaxFeatureDistance is the telemetry.Distance between baseline and
	// current feature distributions that constitutes feature drift
	// (default 0.25).
	MaxFeatureDistance float64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.MaxFeatureDistance <= 0 {
		c.MaxFeatureDistance = 0.25
	}
	return c
}

// Drift verdict strings, ordered from benign to actionable. They are
// pure functions of the two windows and the DriftConfig, so the same
// observations always produce the same verdict.
const (
	// VerdictOK: both windows have evidence and neither channel drifted.
	VerdictOK = "ok"
	// VerdictInsufficient: either window is below minEvals.
	VerdictInsufficient = "insufficient-data"
	// VerdictNoBaseline: no baseline window has been frozen yet.
	VerdictNoBaseline = "no-baseline"
	// VerdictNew: the detector has current traffic but no baseline
	// presence (e.g. it exists only in a freshly promoted bundle).
	VerdictNew = "new-detector"
	// VerdictMissing: the detector has baseline presence but no current
	// traffic at all.
	VerdictMissing = "missing-detector"
	// VerdictAlarmDrift: the alarm-rate delta crossed maxAlarmDelta.
	VerdictAlarmDrift = "drift:alarm-rate"
	// VerdictFeatureDrift: a feature distribution moved past
	// MaxFeatureDistance.
	VerdictFeatureDrift = "drift:feature"
	// VerdictBothDrift: both channels drifted.
	VerdictBothDrift = "drift:alarm-rate+feature"
)

// DriftRow is one detector's drift comparison — one row of
// `edem lifecycle status`.
type DriftRow struct {
	Detector      string  `json:"detector"`
	BaseEvals     int64   `json:"base_evals"`
	CurEvals      int64   `json:"cur_evals"`
	BaseAlarmRate float64 `json:"base_alarm_rate"`
	CurAlarmRate  float64 `json:"cur_alarm_rate"`
	// AlarmDelta is |CurAlarmRate - BaseAlarmRate|.
	AlarmDelta float64 `json:"alarm_delta"`
	// FeatureDistance is the maximum telemetry.Distance across the
	// detector's feature histograms; FeatureIndex is the argmax feature
	// (-1 when no feature has evidence on both sides).
	FeatureDistance float64 `json:"feature_distance"`
	FeatureIndex    int     `json:"feature_index"`
	Verdict         string  `json:"verdict"`
}

// Drifted reports whether the row's verdict calls for re-refinement.
func (r DriftRow) Drifted() bool {
	switch r.Verdict {
	case VerdictAlarmDrift, VerdictFeatureDrift, VerdictBothDrift:
		return true
	}
	return false
}

// detWindow accumulates one detector's live-traffic evidence: eval and
// alarm counts plus one magnitude histogram per feature.
type detWindow struct {
	evals  *telemetry.Counter
	alarms *telemetry.Counter

	mu    sync.Mutex
	hists []*telemetry.Histogram // grown to the detector's arity on first observation
}

// frozenWindow is an immutable snapshot of a detWindow, the baseline
// side of every comparison.
type frozenWindow struct {
	evals   int64
	alarms  int64
	buckets [][]int64
}

// Tracker accumulates per-detector drift evidence and compares the
// current window against a frozen baseline. Observations are lock-free
// after a detector's first sample; Baseline and Report take the
// tracker lock.
type Tracker struct {
	cfg DriftConfig

	mu   sync.RWMutex
	cur  map[string]*detWindow
	base map[string]*frozenWindow
}

// NewTracker returns an empty tracker with the given thresholds.
func NewTracker(cfg DriftConfig) *Tracker {
	return &Tracker{
		cfg:  cfg.withDefaults(),
		cur:  make(map[string]*detWindow),
		base: make(map[string]*frozenWindow),
	}
}

func (t *Tracker) window(det string, arity int) *detWindow {
	t.mu.RLock()
	w := t.cur[det]
	t.mu.RUnlock()
	if w == nil {
		t.mu.Lock()
		if w = t.cur[det]; w == nil {
			w = &detWindow{evals: &telemetry.Counter{}, alarms: &telemetry.Counter{}}
			t.cur[det] = w
		}
		t.mu.Unlock()
	}
	if arity > 0 {
		w.mu.Lock()
		for len(w.hists) < arity {
			w.hists = append(w.hists, &telemetry.Histogram{})
		}
		w.mu.Unlock()
	}
	return w
}

// Observe records one evaluated batch for a detector: every sample's
// features feed the magnitude histograms, every verdict the alarm
// rate. Nil-safe: a nil tracker absorbs observations.
func (t *Tracker) Observe(det string, samples [][]float64, verdicts []bool) {
	if t == nil || len(samples) == 0 {
		return
	}
	arity := len(samples[0])
	w := t.window(det, arity)
	w.evals.Add(int64(len(samples)))
	for _, v := range verdicts {
		if v {
			w.alarms.Inc()
		}
	}
	// hists never shrinks and slots are stable once created, so reading
	// the slice header under the lock once is enough.
	w.mu.Lock()
	hists := w.hists
	w.mu.Unlock()
	for _, s := range samples {
		for i, v := range s {
			if i < len(hists) {
				hists[i].Observe(FeatureKey(v))
			}
		}
	}
}

// Baseline freezes the current window as the comparison baseline and
// resets the current window. Call it once the service has seen enough
// known-good traffic (or right after a promote, to re-anchor on the
// new bundle's behaviour).
func (t *Tracker) Baseline() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.base = make(map[string]*frozenWindow, len(t.cur))
	for det, w := range t.cur {
		fw := &frozenWindow{evals: w.evals.Value(), alarms: w.alarms.Value()}
		w.mu.Lock()
		for _, h := range w.hists {
			fw.buckets = append(fw.buckets, h.Buckets())
		}
		w.mu.Unlock()
		t.base[det] = fw
	}
	t.cur = make(map[string]*detWindow)
}

// HasBaseline reports whether Baseline has frozen a reference window.
func (t *Tracker) HasBaseline() bool {
	if t == nil {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.base) > 0
}

// Reset discards both windows (a new bundle generation starts with a
// clean drift history).
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = make(map[string]*detWindow)
	t.base = make(map[string]*frozenWindow)
}

// Report compares the current window against the baseline for every
// detector either side has seen, in sorted detector order. The report
// is a pure function of the two windows and the thresholds: identical
// observations always yield identical rows.
func (t *Tracker) Report() []DriftRow {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()

	ids := make(map[string]bool, len(t.cur)+len(t.base))
	for det := range t.cur {
		ids[det] = true
	}
	for det := range t.base {
		ids[det] = true
	}
	dets := make([]string, 0, len(ids))
	for det := range ids {
		dets = append(dets, det)
	}
	sort.Strings(dets)

	noBaseline := len(t.base) == 0
	rows := make([]DriftRow, 0, len(dets))
	for _, det := range dets {
		row := DriftRow{Detector: det, FeatureIndex: -1}
		fw := t.base[det]
		w := t.cur[det]
		var curBuckets [][]int64
		if w != nil {
			row.CurEvals = w.evals.Value()
			if row.CurEvals > 0 {
				row.CurAlarmRate = float64(w.alarms.Value()) / float64(row.CurEvals)
			}
			w.mu.Lock()
			for _, h := range w.hists {
				curBuckets = append(curBuckets, h.Buckets())
			}
			w.mu.Unlock()
		}
		if fw != nil {
			row.BaseEvals = fw.evals
			if fw.evals > 0 {
				row.BaseAlarmRate = float64(fw.alarms) / float64(fw.evals)
			}
		}
		row.AlarmDelta = math.Abs(row.CurAlarmRate - row.BaseAlarmRate)

		// Feature distance: max over the features present on both sides;
		// a feature only one side ever observed contributes nothing here
		// (its mass shows up through the presence verdicts instead).
		if fw != nil {
			n := len(fw.buckets)
			if len(curBuckets) < n {
				n = len(curBuckets)
			}
			for i := 0; i < n; i++ {
				d := telemetry.Distance(fw.buckets[i], curBuckets[i])
				if d > row.FeatureDistance {
					row.FeatureDistance = d
					row.FeatureIndex = i
				}
			}
		}

		switch {
		case noBaseline:
			row.Verdict = VerdictNoBaseline
		case fw == nil:
			row.Verdict = VerdictNew
		case row.CurEvals == 0:
			row.Verdict = VerdictMissing
		case row.BaseEvals < minEvals || row.CurEvals < minEvals:
			row.Verdict = VerdictInsufficient
		default:
			alarmDrift := row.AlarmDelta > maxAlarmDelta
			featDrift := row.FeatureDistance > t.cfg.MaxFeatureDistance
			switch {
			case alarmDrift && featDrift:
				row.Verdict = VerdictBothDrift
			case alarmDrift:
				row.Verdict = VerdictAlarmDrift
			case featDrift:
				row.Verdict = VerdictFeatureDrift
			default:
				row.Verdict = VerdictOK
			}
		}
		rows = append(rows, row)
	}
	return rows
}
