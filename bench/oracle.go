package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The serving workloads build their traffic and their expected answers
// from the files edem writes: the detector bundle of `edem export` and
// the PROPANE log of `edem inject -log`. Everything here reads those
// documented formats with the standard library alone.

// atom, clause and detectorPred mirror the bundle's JSON layout.
type atom struct {
	Index     int     `json:"index"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
}

type detectorPred struct {
	ID        string `json:"id"`
	Predicate struct {
		Vars    []string `json:"vars"`
		Clauses [][]atom `json:"clauses"`
	} `json:"predicate"`
}

func readBundle(path string) (map[string]*detectorPred, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		Detectors []*detectorPred `json:"detectors"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bundle %s: %w", path, err)
	}
	out := make(map[string]*detectorPred, len(b.Detectors))
	for _, d := range b.Detectors {
		out[d.ID] = d
	}
	return out, nil
}

// eval is the reference verdict: the predicate flags a state when any
// clause has every atom true. It follows the AST evaluator's
// semantics: an atom on a missing value (NaN) or an index past the
// state is false, and ±Inf compare as ordinary numbers. Traced runs
// check it against the AST evaluator itself on every sample sent.
func (d *detectorPred) eval(values []float64) bool {
	for _, c := range d.Predicate.Clauses {
		if clauseHolds(c, values) {
			return true
		}
	}
	return false
}

func clauseHolds(c []atom, values []float64) bool {
	for _, a := range c {
		if a.Index < 0 || a.Index >= len(values) {
			return false
		}
		v := values[a.Index]
		if math.IsNaN(v) {
			return false
		}
		var ok bool
		switch a.Op {
		case "<=":
			ok = v <= a.Threshold
		case ">":
			ok = v > a.Threshold
		case "=":
			ok = v == a.Threshold
		case "!=":
			ok = v != a.Threshold
		}
		if !ok {
			return false
		}
	}
	return true
}

// readStates returns the sampled state vectors of a PROPANE log, in log
// order. Values keep their exact bits, NaN and ±Inf included.
func readStates(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseStates(f)
}

func parseStates(r io.Reader) ([][]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	var states [][]float64
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if !strings.HasPrefix(text, "RUN ") {
			continue
		}
		for _, field := range strings.Fields(text[4:]) {
			val, ok := strings.CutPrefix(field, "state=")
			if !ok {
				continue
			}
			parts := strings.Split(val, ",")
			s := make([]float64, len(parts))
			for i, p := range parts {
				v, err := strconv.ParseFloat(p, 64)
				if err != nil {
					return nil, fmt.Errorf("log line %d: %w", line, err)
				}
				s[i] = v
			}
			states = append(states, s)
		}
	}
	return states, sc.Err()
}

// encodeBinary builds one binary evaluate frame (the columnar batch
// format: length prefix, "EDBF" magic, version 1, kind 1, detector ID,
// sample count, arity, deadline and delay, then column-major IEEE-754
// bit patterns).
func encodeBinary(detector string, samples [][]float64) []byte {
	arity := len(samples[0])
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 0)
	b = le.AppendUint32(b, 0x46424445)
	b = append(b, 1, 1)
	b = le.AppendUint16(b, uint16(len(detector)))
	b = append(b, detector...)
	b = le.AppendUint32(b, uint32(len(samples)))
	b = le.AppendUint32(b, uint32(arity))
	b = le.AppendUint64(b, 0) // deadline_ms: server default
	b = le.AppendUint64(b, 0) // delay_ms
	for j := 0; j < arity; j++ {
		for _, s := range samples {
			b = le.AppendUint64(b, math.Float64bits(s[j]))
		}
	}
	le.PutUint32(b, uint32(len(b)-4))
	return b
}

// encodeJSON builds one JSON evaluate body. Finite values are JSON
// numbers in their shortest exact form; NaN and ±Inf, which JSON cannot
// carry, travel as hex IEEE-754 bit patterns in strings.
func encodeJSON(detector string, samples [][]float64) []byte {
	b := []byte(`{"detector":`)
	b = strconv.AppendQuote(b, detector)
	b = append(b, `,"samples":[`...)
	for i, s := range samples {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range s {
			if j > 0 {
				b = append(b, ',')
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				b = append(b, '"')
				b = strconv.AppendUint(b, math.Float64bits(v), 16)
				b = append(b, '"')
				continue
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// response is a decoded evaluate response, from either codec.
type response struct {
	Verdicts   []bool `json:"verdicts"`
	Alarms     []int  `json:"alarms"`
	Evaluated  int    `json:"evaluated"`
	Degraded   string `json:"degraded"`
	Generation uint64 `json:"bundle_generation"`
}

// decodeBinaryResponse parses a binary response frame strictly.
func decodeBinaryResponse(data []byte) (*response, error) {
	le := binary.LittleEndian
	off := 0
	take := func(n int) []byte {
		if n < 0 || off+n > len(data) {
			off = len(data) + 1
			return nil
		}
		b := data[off : off+n]
		off += n
		return b
	}
	u16 := func() int {
		if b := take(2); b != nil {
			return int(le.Uint16(b))
		}
		return 0
	}
	u32 := func() int {
		if b := take(4); b != nil {
			return int(le.Uint32(b))
		}
		return 0
	}
	if n := u32(); n != len(data)-4 {
		return nil, fmt.Errorf("binary response: length prefix %d for %d bytes", n, len(data)-4)
	}
	if m := u32(); m != 0x46424445 {
		return nil, fmt.Errorf("binary response: bad magic %#x", m)
	}
	if h := take(2); h == nil || h[0] != 1 || h[1] != 2 {
		return nil, fmt.Errorf("binary response: bad version or kind")
	}
	r := &response{}
	if g := take(8); g != nil {
		r.Generation = le.Uint64(g)
	}
	r.Degraded = string(take(u16()))
	r.Evaluated = u32()
	nv := u32()
	bitmap := take((nv + 7) / 8)
	if off > len(data) {
		return nil, fmt.Errorf("binary response: truncated")
	}
	r.Verdicts = make([]bool, nv)
	for i := range r.Verdicts {
		r.Verdicts[i] = bitmap[i/8]&(1<<(i%8)) != 0
	}
	na := u32()
	for i := 0; i < na && off <= len(data); i++ {
		r.Alarms = append(r.Alarms, u32())
	}
	if off != len(data) {
		return nil, fmt.Errorf("binary response: %d bytes, parsed %d", len(data), off)
	}
	return r, nil
}

// check compares a response with the expected verdicts: one verdict per
// sample, the alarms are exactly the 1-based indices of the true
// verdicts, nothing degraded, served by the first bundle generation.
func (r *response) check(want []bool) error {
	if r.Generation != 1 {
		return fmt.Errorf("bundle generation %d, want 1", r.Generation)
	}
	if r.Degraded != "" || r.Evaluated != len(want) || len(r.Verdicts) != len(want) {
		return fmt.Errorf("evaluated %d of %d samples (degraded %q)", r.Evaluated, len(want), r.Degraded)
	}
	alarms := 0
	for i, v := range want {
		if r.Verdicts[i] != v {
			return fmt.Errorf("sample %d: verdict %v, want %v", i, r.Verdicts[i], v)
		}
		if v {
			if alarms >= len(r.Alarms) || r.Alarms[alarms] != i+1 {
				return fmt.Errorf("alarms %v disagree with verdicts", r.Alarms)
			}
			alarms++
		}
	}
	if alarms != len(r.Alarms) {
		return fmt.Errorf("%d alarms for %d true verdicts", len(r.Alarms), alarms)
	}
	return nil
}
