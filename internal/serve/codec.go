package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Sample is one sampled state vector on the wire. Finite values travel
// as ordinary JSON numbers; NaN and ±Inf — which corrupted runs
// legitimately sample, and which encoding/json rejects — travel as
// 16-digit hex IEEE-754 bit patterns, the same transport the campaign
// journal uses (internal/campaign). Decoding accepts either form for
// every element; encoding uses hex only where JSON numbers cannot
// round-trip the value exactly.
type Sample []float64

// MarshalJSON encodes the sample, escaping non-finite values as hex
// bit-pattern strings.
func (s Sample) MarshalJSON() ([]byte, error) {
	return appendSample(nil, s), nil
}

// appendSample appends s as MarshalJSON encodes it.
func appendSample(b []byte, s Sample) []byte {
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendValue(b, v)
	}
	return append(b, ']')
}

// appendValue appends one sample element. NaN and ±Inf become hex
// bit-pattern strings; finite values take encoding/json's float64
// format byte for byte: 'f', or 'e' when |v| < 1e-6 or |v| ≥ 1e21,
// with a two-digit negative exponent shortened (e-09 → e-9).
func appendValue(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b = append(b, '"')
		b = strconv.AppendUint(b, math.Float64bits(v), 16)
		return append(b, '"')
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONRequest appends the JSON evaluate body for detector and
// samples, byte-identical to json.Marshal(EvalRequest{Detector:
// detector, Samples: samples}) without that call's reflection per
// value and its second pass compacting every sample.
func appendJSONRequest(b []byte, detector string, samples []Sample) []byte {
	b = append(b, `{"detector":`...)
	b = appendJSONString(b, detector)
	b = append(b, `,"samples":`...)
	if samples == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, s := range samples {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSample(b, s)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendJSONString appends s as encoding/json encodes a string, HTML
// escaping included. Printable ASCII that needs no escape is copied;
// anything else takes json.Marshal, so the rarer escapes, invalid UTF-8
// and U+2028/U+2029 are encoding/json's own.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// UnmarshalJSON decodes a sample whose elements are JSON numbers or
// hex bit-pattern strings.
func (s *Sample) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(Sample, len(raw))
	for i, r := range raw {
		if len(r) > 0 && r[0] == '"' {
			var hex string
			if err := json.Unmarshal(r, &hex); err != nil {
				return err
			}
			bits, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				return fmt.Errorf("serve: bad state bits %q: %w", hex, err)
			}
			out[i] = math.Float64frombits(bits)
			continue
		}
		var v float64
		if err := json.Unmarshal(r, &v); err != nil {
			return err
		}
		out[i] = v
	}
	*s = out
	return nil
}

// EvalRequest is the POST /v1/evaluate body.
type EvalRequest struct {
	// Detector selects the bundle entry by ID.
	Detector string `json:"detector"`
	// Samples are the state vectors to evaluate; each must match the
	// detector's variable arity.
	Samples []Sample `json:"samples"`
	// DeadlineMS, when positive, overrides the server's default
	// per-request deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// DelayMS injects a synthetic per-request evaluation delay. Honoured
	// only when the server runs with AllowDelay (load and drain testing);
	// ignored otherwise.
	DelayMS int64 `json:"delay_ms,omitempty"`
}

// DecodeJSONRequest parses one JSON evaluate body into pooled request
// state, the JSON counterpart of DecodeBinaryRequest. A canonical body
// (only the keys detector, samples, deadline_ms and delay_ms, each at
// most once, no string escapes, integer _ms values and nothing after
// the object) parses in one pass. Any other goes to encoding/json,
// which decodes it exactly as json.NewDecoder(body).Decode(&EvalRequest{})
// does, errors and ignored trailing data included. The returned request
// does not alias data; Release it when the evaluation is over.
func DecodeJSONRequest(data []byte) (*BinaryRequest, error) {
	br := getBinaryRequest()
	if _, err := br.decodeJSON(data, nil); err != nil {
		br.Release()
		return nil, err
	}
	return br, nil
}

// readJSONRequest slurps a JSON evaluate body into the pooled body
// buffer and decodes it, reporting whether it took the fallback.
func readJSONRequest(body io.Reader) (br *BinaryRequest, fellBack bool, err error) {
	br = getBinaryRequest()
	readErr := br.readBody(body)
	if fellBack, err = br.decodeJSON(br.buf, readErr); err != nil {
		br.Release()
		return nil, fellBack, err
	}
	return br, fellBack, nil
}

// decodeJSON decodes one JSON evaluate body into br. The fast path runs
// only on a complete body. Otherwise, and whenever the fast path
// refuses, encoding/json decodes data followed by readErr: the byte
// stream a decoder reading the request body itself would have seen.
func (br *BinaryRequest) decodeJSON(data []byte, readErr error) (fellBack bool, err error) {
	if readErr == nil && br.parseCanonicalJSON(data) {
		return false, nil
	}
	src := io.Reader(bytes.NewReader(data))
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var req EvalRequest
	if err := json.NewDecoder(src).Decode(&req); err != nil {
		return true, err
	}
	br.Detector, br.Samples = req.Detector, req.Samples
	br.DeadlineMS, br.DelayMS = req.DeadlineMS, req.DelayMS
	return true, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// The fields of a canonical body, as bits of a seen-set.
const (
	fieldDetector = 1 << iota
	fieldSamples
	fieldDeadline
	fieldDelay
)

// parseCanonicalJSON is the one-pass fast path. It accepts only an
// object whose keys are exactly "detector", "samples", "deadline_ms"
// and "delay_ms", each at most once, where
//   - the detector is a string of printable ASCII without escapes;
//   - the samples are an array of arrays whose elements are JSON
//     numbers, valued as strconv.ParseFloat values them, which is how
//     encoding/json parses them (see jsonScanner.float), or escape-free
//     strings, parsed with strconv.ParseUint in base 16 as
//     Sample.UnmarshalJSON parses them;
//   - the _ms fields are integer literals, parsed with strconv.ParseInt
//     as encoding/json parses them;
//
// with JSON whitespace anywhere and nothing else after the object. On
// such a body encoding/json decodes the same values. On any other the
// parser returns false, leaving the exported fields as they were.
func (br *BinaryRequest) parseCanonicalJSON(data []byte) bool {
	p := jsonScanner{data: data}
	if !p.eat('{') {
		return false
	}
	var (
		seen            uint8
		detector        []byte
		deadline, delay int64
		flat            = br.flat[:0]
		hdr             = br.sampHdr[:0]
	)
	if !p.eat('}') {
		for {
			key, ok := p.str()
			if !ok || !p.eat(':') {
				return false
			}
			var field uint8
			switch string(key) {
			case "detector":
				field = fieldDetector
				detector, ok = p.str()
			case "samples":
				field = fieldSamples
				flat, hdr, ok = p.samples(flat, hdr)
			case "deadline_ms":
				field = fieldDeadline
				deadline, ok = p.int()
			case "delay_ms":
				field = fieldDelay
				delay, ok = p.int()
			}
			if field == 0 || !ok || seen&field != 0 {
				return false
			}
			seen |= field
			if p.eat('}') {
				break
			}
			if !p.eat(',') {
				return false
			}
		}
	}
	if p.ws(); p.off != len(data) {
		return false
	}
	// Appends may have moved flat since a sample's header was cut, so
	// the headers are re-cut from the final array; the samples lie in
	// it back to back.
	off := 0
	for i, s := range hdr {
		n := len(s)
		hdr[i] = Sample(flat[off : off+n : off+n])
		off += n
	}
	br.Detector = string(detector)
	br.Samples = hdr
	br.DeadlineMS, br.DelayMS = deadline, delay
	br.flat, br.sampHdr = flat[:0], hdr[:0]
	return true
}

// jsonScanner is the fast path's cursor. Its methods report false on
// any byte they do not expect; they never build an error.
type jsonScanner struct {
	data []byte
	off  int
}

// ws skips JSON whitespace. Canonical bodies rarely have any, so a
// next byte above ' ', which cannot be whitespace, returns at once.
func (p *jsonScanner) ws() {
	if p.off < len(p.data) && p.data[p.off] > ' ' {
		return
	}
	for p.off < len(p.data) {
		switch p.data[p.off] {
		case ' ', '\t', '\n', '\r':
			p.off++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (p *jsonScanner) eat(c byte) bool {
	p.ws()
	if p.off < len(p.data) && p.data[p.off] == c {
		p.off++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its contents.
func (p *jsonScanner) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	for i := p.off; i < len(p.data); i++ {
		switch c := p.data[i]; {
		case c == '"':
			s := p.data[p.off:i]
			p.off = i + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// samples consumes an array of arrays of sample elements, appending
// the values to flat and one header per sample to hdr. A header is cut
// from flat as it stood when its sample ended.
func (p *jsonScanner) samples(flat []float64, hdr []Sample) ([]float64, []Sample, bool) {
	if !p.eat('[') {
		return flat, hdr, false
	}
	if p.eat(']') {
		return flat, hdr, true
	}
	for {
		if !p.eat('[') {
			return flat, hdr, false
		}
		start := len(flat)
		if !p.eat(']') {
			for {
				v, ok := p.value()
				if !ok {
					return flat, hdr, false
				}
				flat = append(flat, v)
				if p.eat(']') {
					break
				}
				if !p.eat(',') {
					return flat, hdr, false
				}
			}
		}
		hdr = append(hdr, Sample(flat[start:]))
		if p.eat(']') {
			return flat, hdr, true
		}
		if !p.eat(',') {
			return flat, hdr, false
		}
	}
}

// value consumes one sample element: a number, or a hex bit pattern in
// a string. Any string that strconv.ParseUint accepts in base 16 is
// hex digits only, so it has no escapes to undo.
func (p *jsonScanner) value() (float64, bool) {
	p.ws()
	if p.off < len(p.data) && p.data[p.off] == '"' {
		n := bytes.IndexByte(p.data[p.off+1:], '"')
		if n < 0 {
			return 0, false
		}
		hex := p.data[p.off+1 : p.off+1+n]
		p.off += n + 2
		bits, err := strconv.ParseUint(string(hex), 16, 64)
		return math.Float64frombits(bits), err == nil
	}
	return p.float()
}

// float consumes one JSON number and returns strconv.ParseFloat's value
// for it. The scan collects the significant digits and the decimal
// exponent as strconv's readFloat does; when the value is exact under
// the conditions of strconv's atof64exact (at most 19 digits, mantissa
// below 2^52, and an exponent one correctly rounded multiply or divide
// by an exact power of ten can apply), it is computed with that same
// arithmetic, so both give the one correctly rounded result. Any other
// token, such as a 17-digit shortest-form float, goes to
// strconv.ParseFloat.
func (p *jsonScanner) float() (float64, bool) {
	p.ws()
	d, i := p.data, p.off
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	// mant wraps past 19 digits, where nd sends the token to strconv.
	var (
		mant uint64
		nd   int // significant digits, from the first non-zero one
		dp   int // the decimal point's position relative to them
	)
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			mant = mant*10 + uint64(d[i]-'0')
			nd++
		}
		dp = nd
	default:
		return 0, false
	}
	if i < len(d) && d[i] == '.' {
		i++
		j := i
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			if nd == 0 && d[i] == '0' {
				dp-- // a leading zero
				continue
			}
			mant = mant*10 + uint64(d[i]-'0')
			nd++
		}
		if i == j {
			return 0, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		esign := 1
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			if d[i] == '-' {
				esign = -1
			}
			i++
		}
		j, e := i, 0
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(d[i]-'0')
			}
		}
		if i == j {
			return 0, false
		}
		dp += esign * e
	}
	tok := d[p.off:i]
	p.off = i
	exp := 0
	if mant != 0 {
		exp = dp - nd
	}
	if nd <= 19 && mant>>52 == 0 {
		f := float64(mant)
		if neg {
			f = -f
		}
		switch {
		case exp == 0:
			return f, true
		case exp > 0 && exp <= 15+22:
			if exp > 22 {
				f *= float64pow10[exp-22]
				exp = 22
			}
			if f <= 1e15 && f >= -1e15 {
				return f * float64pow10[exp], true
			}
		case exp < 0 && exp >= -22:
			return f / float64pow10[-exp], true
		}
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// int consumes an integer literal, -?(0|[1-9][0-9]*).
func (p *jsonScanner) int() (int64, bool) {
	p.ws()
	d, i := p.data, p.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
	default:
		return 0, false
	}
	tok := d[p.off:i]
	p.off = i
	v, err := strconv.ParseInt(string(tok), 10, 64)
	return v, err == nil
}

// EvalResponse is the evaluation result.
type EvalResponse struct {
	Detector string `json:"detector"`
	// Verdicts holds one flag per sample: true = the predicate flagged
	// the state as failure-inducing.
	Verdicts []bool `json:"verdicts,omitempty"`
	// Alarms lists the 1-based indices of flagged samples.
	Alarms []int `json:"alarms,omitempty"`
	// Evaluated is the number of samples actually evaluated (0 when the
	// request was degraded).
	Evaluated int `json:"evaluated"`
	// Degraded is empty on a full evaluation; otherwise it names why the
	// response carries no verdicts ("breaker-open", "eval-error: ...")
	// under the fail-open policy.
	Degraded string `json:"degraded,omitempty"`
	// BundleGeneration is the monotone generation number of the bundle
	// that served the evaluation; it increments on every hot reload, so
	// clients can observe reload atomicity.
	BundleGeneration uint64 `json:"bundle_generation,omitempty"`
}

// appendEvalResponse appends resp as json.NewEncoder(w).Encode(resp)
// writes it, byte for byte: the fields in declaration order, the
// omitempty ones left out when empty, and the trailing newline.
func appendEvalResponse(b []byte, resp *EvalResponse) []byte {
	b = append(b, `{"detector":`...)
	b = appendJSONString(b, resp.Detector)
	if len(resp.Verdicts) > 0 {
		b = append(b, `,"verdicts":[`...)
		for i, v := range resp.Verdicts {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, v)
		}
		b = append(b, ']')
	}
	if len(resp.Alarms) > 0 {
		b = append(b, `,"alarms":[`...)
		for i, a := range resp.Alarms {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(a), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"evaluated":`...)
	b = strconv.AppendInt(b, int64(resp.Evaluated), 10)
	if resp.Degraded != "" {
		b = append(b, `,"degraded":`...)
		b = appendJSONString(b, resp.Degraded)
	}
	if resp.BundleGeneration != 0 {
		b = append(b, `,"bundle_generation":`...)
		b = strconv.AppendUint(b, resp.BundleGeneration, 10)
	}
	return append(b, "}\n"...)
}

// ReloadRequest is the POST /admin/reload body. An empty path re-reads
// the bundle the server was started with (the SIGHUP behaviour).
type ReloadRequest struct {
	Path string `json:"path,omitempty"`
}

// ReloadResponse reports the detectors loaded by a reload.
type ReloadResponse struct {
	Path      string   `json:"path"`
	Detectors []string `json:"detectors"`
	// Generation is the bundle generation the reload installed.
	Generation uint64 `json:"generation"`
}

// DetectorStatus is one row of GET /v1/detectors.
type DetectorStatus struct {
	ID       string `json:"id"`
	Module   string `json:"module"`
	Location string `json:"location"`
	Clauses  int    `json:"clauses"`
	Atoms    int    `json:"atoms"`
	// Breaker is the circuit state: "closed", "open" or "half-open".
	Breaker string `json:"breaker"`
	Evals   int64  `json:"evals"`
	Alarms  int64  `json:"alarms"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status    string `json:"status"` // "ok" or "draining"
	Detectors int    `json:"detectors"`
}
