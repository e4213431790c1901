package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"strings"
	"time"
)

// Snapshot is a consistent-enough copy of a registry's state, suitable
// for JSON serialisation (`edem ... -metrics-out`), expvar exposure and
// the -trace span tree. Counters and phases are read individually with
// atomic loads; a snapshot taken while the pipeline runs may therefore
// be torn across metrics, but any snapshot taken after the instrumented
// work completed is exact.
type Snapshot struct {
	// WallNS is the wall-clock nanoseconds from registry creation to the
	// snapshot — the denominator for phase coverage checks.
	WallNS   int64                        `json:"wall_ns"`
	Counters map[string]int64             `json:"counters,omitempty"`
	Gauges   map[string]int64             `json:"gauges,omitempty"`
	Hists    map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Phases maps span paths ("refine/cell") to their aggregates.
	Phases map[string]PhaseSnapshot `json:"phases,omitempty"`
}

// PhaseSnapshot is the aggregate of every ended span under one path.
type PhaseSnapshot struct {
	Count int64 `json:"count"`
	// NS is the summed wall-clock of the spans. Spans on concurrent
	// goroutines accumulate independently, so under parallelism this is
	// busy time, not elapsed time; it equals elapsed time only for
	// serial execution (-workers 1).
	NS int64 `json:"ns"`
	// Allocs is the heap objects allocated during the spans: approximate
	// process-wide counter deltas (see heapAllocsSample).
	Allocs int64 `json:"allocs"`
}

// HistogramSnapshot summarises a histogram: count, sum and power-of-two
// bucket quantile bounds.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// Snapshot captures the registry state. Returns an empty snapshot on a
// nil registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistogramSnapshot{},
		Phases:   map[string]PhaseSnapshot{},
	}
	if r == nil {
		return s
	}
	s.WallNS = int64(r.Wall())
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Hists[name] = HistogramSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
			Max:   h.Quantile(1),
		}
	}
	for path, p := range r.phases {
		s.Phases[path] = PhaseSnapshot{
			Count:  p.count.Load(),
			NS:     p.ns.Load(),
			Allocs: p.allocs.Load(),
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON with sorted keys
// (encoding/json sorts map keys), so output is diffable.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// RootPhaseNS sums the durations of top-level phases (paths without a
// '/'). Nested spans are excluded, so the sum does not double-count;
// for a serial run it should account for nearly all of WallNS.
func (s *Snapshot) RootPhaseNS() int64 {
	var total int64
	for path, p := range s.Phases {
		if !strings.Contains(path, "/") {
			total += p.NS
		}
	}
	return total
}

// FormatTree renders the phase aggregates as an indented tree with
// counts, total and mean durations and allocation deltas — the -trace
// output. Sibling order is by first-segment path order (alphabetical),
// which is stable across runs.
func (s *Snapshot) FormatTree() string {
	if len(s.Phases) == 0 {
		return "no spans recorded\n"
	}
	paths := sortedKeys(s.Phases)
	// Parents always sort before their children ("refine" < "refine/cell"
	// fails lexically: '/' < any letter is false — '/' is 0x2f, letters
	// 0x41+, so "refine" < "refine/cell" holds by prefix rule). Render in
	// sorted order with depth = number of separators.
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-36s %9s %12s %12s %12s\n", "phase", "count", "total", "mean", "allocs")
	for _, path := range paths {
		p := s.Phases[path]
		depth := strings.Count(path, "/")
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		indent := strings.Repeat("  ", depth)
		mean := time.Duration(0)
		if p.Count > 0 {
			mean = time.Duration(p.NS / p.Count)
		}
		fmt.Fprintf(&sb, "%-36s %9d %12s %12s %12d\n",
			indent+name, p.Count,
			time.Duration(p.NS).Round(time.Microsecond),
			mean.Round(time.Microsecond),
			p.Allocs)
	}
	wall := time.Duration(s.WallNS).Round(time.Microsecond)
	root := time.Duration(s.RootPhaseNS()).Round(time.Microsecond)
	fmt.Fprintf(&sb, "wall %s, root phases %s", wall, root)
	if s.WallNS > 0 {
		fmt.Fprintf(&sb, " (%.1f%% coverage; >100%% means parallel phases)",
			100*float64(s.RootPhaseNS())/float64(s.WallNS))
	}
	sb.WriteByte('\n')
	return sb.String()
}

// CounterNames returns the counter names present in the snapshot,
// sorted.
func (s *Snapshot) CounterNames() []string { return sortedKeys(s.Counters) }

// PublishExpvar exposes the process-default registry under the given
// expvar name as a function variable that snapshots on demand
// (GET /debug/vars). It reads Default() per request, so it tracks
// registry swaps (and reports an empty snapshot while disabled). Like
// expvar.Publish it must be called at most once per name per process.
func PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return Default().Snapshot() }))
}
