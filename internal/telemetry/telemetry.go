// Package telemetry is the observability substrate of the pipeline: a
// dependency-free metrics registry (counters, gauges, duration
// histograms) plus lightweight phase spans that nest through context
// and aggregate per-phase wall-clock, call counts and heap allocations.
//
// Every instrumented layer — fault-injection campaigns (propane.Run),
// preprocessing (core.Preprocess), baseline cross-validation
// (core.Baseline, eval.CrossValidate), the refinement grid's cells
// (core.Refine) and detector re-validation (core.ValidateDetector) —
// reports into whichever Registry is active. A Registry reaches the
// pipeline one of two ways:
//
//   - through context (WithRegistry), which scopes metrics to one
//     pipeline invocation and makes concurrent runs independently
//     observable, or
//   - through the process default (SetDefault), which is what the CLI's
//     -metrics-out / -trace flags and the expvar endpoint use.
//
// Telemetry is disabled by default and the disabled path is engineered
// to be near-free: a nil *Registry is a valid receiver for every method,
// a nil *Counter/*Gauge/*Histogram absorbs updates with a single
// predictable branch, and StartSpan on a disabled context returns a nil
// *Span whose End is a no-op. Hot loops therefore hoist the metric
// lookup out of the loop once and call Add unconditionally; see
// BenchmarkTelemetryOverhead for the measured cost (<2% on tree
// induction, the tightest instrumented loop).
//
// Role in the methodology: cross-cutting — it observes all four steps
// without participating in any result. Concurrency: a Registry and all
// its metrics are safe for unrestricted concurrent use (atomic
// updates); counter values are scheduling-invariant, so snapshots after
// completion are exact for any worker count. A *Span belongs to the
// goroutine (or context subtree) that started it; End it exactly once.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds the metrics of one observation scope. The zero value
// is not used directly; create instances with New. All methods are safe
// for concurrent use, and all methods tolerate a nil receiver (they
// no-op or return nil), which is the disabled fast path.
type Registry struct {
	start atomic.Int64 // registry epoch, ns since Unix epoch

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	phases   map[string]*phase
}

// New returns an empty registry with its wall-clock epoch set to now.
func New() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		phases:   make(map[string]*phase),
	}
	r.start.Store(time.Now().UnixNano())
	return r
}

// defaultRegistry is the process-wide registry used when none travels in
// the context — nil means telemetry is disabled, the default.
var defaultRegistry atomic.Pointer[Registry]

// SetDefault installs r as the process-wide default registry. Passing
// nil disables telemetry for every code path that does not carry an
// explicit registry in its context.
func SetDefault(r *Registry) { defaultRegistry.Store(r) }

// Default returns the process-wide registry, or nil when telemetry is
// disabled.
func Default() *Registry { return defaultRegistry.Load() }

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry; a nil *Counter accepts Add/Inc as no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// phase returns the aggregate for a span path, creating it on first use.
func (r *Registry) phase(path string) *phase {
	r.mu.RLock()
	p := r.phases[path]
	r.mu.RUnlock()
	if p != nil {
		return p
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p = r.phases[path]; p == nil {
		p = &phase{}
		r.phases[path] = p
	}
	return p
}

// Wall returns the wall-clock time elapsed since the registry was
// created (zero on a nil registry).
func (r *Registry) Wall() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - r.start.Load())
}

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; a nil *Counter absorbs updates.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer metric (e.g. a configured worker
// budget or grid size). A nil *Gauge absorbs updates.
type Gauge struct{ v atomic.Int64 }

// Add adjusts the gauge by delta. No-op on a nil gauge.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge value (zero on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a Histogram: observations land in
// bucket floor(log2(v))+1, so 64 buckets cover the whole non-negative
// int64 range. Bucket 0 holds v <= 0.
const histBuckets = 64

// Histogram records a distribution of non-negative int64 observations
// (durations in nanoseconds, sizes) in power-of-two buckets. The hot
// path is two atomic adds plus a bit-length; there is no locking. A nil
// *Histogram absorbs observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one observation. Values below zero clamp to zero.
// No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveDuration records a duration observation in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// bucketOf maps an observation to its power-of-two bucket index.
func bucketOf(v int64) int {
	idx := 0
	for v > 0 {
		idx++
		v >>= 1
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// Buckets returns a copy of the power-of-two bucket counts (bucket i
// holds values whose bit length is i; bucket 0 holds v <= 0). Nil-safe:
// a nil histogram returns a zero slice of the standard length, so
// comparators never branch on presence.
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, histBuckets)
	if h == nil {
		return out
	}
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Distance is the deterministic histogram comparator used by drift
// detection (internal/lifecycle): the total-variation distance between
// the two bucket-mass distributions, in [0, 1]. 0 means identical
// shape, 1 means disjoint support. Edge semantics are fixed so drift
// verdicts are reproducible:
//
//   - both histograms empty → 0 (no evidence is not drift),
//   - exactly one empty → 1 (mass appeared from, or vanished to, nothing),
//   - different lengths → the shorter is treated as zero-padded.
//
// Normalisation and summation happen in ascending bucket order with
// IEEE-754 float64 arithmetic, so the result is bit-reproducible for
// the same inputs on any conforming platform.
func Distance(a, b []int64) float64 {
	var na, nb int64
	for _, v := range a {
		na += v
	}
	for _, v := range b {
		nb += v
	}
	if na == 0 && nb == 0 {
		return 0
	}
	if na == 0 || nb == 0 {
		return 1
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	var sum float64
	for i := 0; i < n; i++ {
		var av, bv int64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		d := float64(av)/float64(na) - float64(bv)/float64(nb)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / 2
}

// Count returns the number of observations (zero on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (zero on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) from
// the power-of-two buckets: the top of the bucket containing the
// q-quantile observation. Zero before any observation.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if h == nil || n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n-1))
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			return bucketTop(i)
		}
	}
	return bucketTop(histBuckets - 1)
}

// bucketTop returns the largest value that lands in bucket i.
func bucketTop(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// phase aggregates every span ended under one path.
type phase struct {
	count  atomic.Int64
	ns     atomic.Int64
	allocs atomic.Int64
}

// sortedKeys returns the keys of a map in sorted order — snapshots and
// rendered trees must be deterministic for golden tests and diffs.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
