package report

import "sort"

// Span is one timed interval of a traced run. Start and End are
// nanoseconds since the trace began; Parent is the ID of the span that
// caused it (0 for a root); Op groups the spans of one operation.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// TracerReport is what the in-process tracer writes for the runner:
// layer metrics by name, its spans, and errors, any of which makes the
// traced run incorrect.
type TracerReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []Span             `json:"spans,omitempty"`
	Errors  []string           `json:"errors,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (the
// two fabric workers, say) are counted once, so a self time is never
// negative.
func SelfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, children []Span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// Coverage is the share of the named root spans' time that their child
// spans cover: 1 minus their summed self time over their summed
// duration.
func Coverage(spans []Span, root string) float64 {
	self := SelfTimes(spans)
	var dur, uncovered int64
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 {
			dur += s.Dur()
			uncovered += self[s.ID]
		}
	}
	if dur == 0 {
		return 0
	}
	return 1 - float64(uncovered)/float64(dur)
}
