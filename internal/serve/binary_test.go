package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// encodeBinaryRequest appends one request frame (including the length
// prefix) to dst and returns the extended slice: the client side of the
// frame, the encoder the round-trip tests and the fuzzer check
// DecodeBinaryRequest against.
func encodeBinaryRequest(dst []byte, detector string, samples []Sample, deadlineMS, delayMS int64) ([]byte, error) {
	if len(detector) > binMaxDetectorID {
		return nil, fmt.Errorf("serve: binary frame: detector ID of %d bytes", len(detector))
	}
	arity := 0
	if len(samples) > 0 {
		arity = len(samples[0])
	}
	for i, s := range samples {
		if len(s) != arity {
			return nil, fmt.Errorf("serve: binary frame: sample %d has %d values, sample 0 has %d", i, len(s), arity)
		}
	}
	lenAt := len(dst)
	dst = appendUint32(dst, 0) // length back-patched below
	dst = appendUint32(dst, binMagic)
	dst = append(dst, binVersion, binKindRequest)
	dst = appendUint16(dst, uint16(len(detector)))
	dst = append(dst, detector...)
	dst = appendUint32(dst, uint32(len(samples)))
	dst = appendUint32(dst, uint32(arity))
	dst = appendUint64(dst, uint64(deadlineMS))
	dst = appendUint64(dst, uint64(delayMS))
	for j := 0; j < arity; j++ {
		for i := range samples {
			dst = appendUint64(dst, math.Float64bits(samples[i][j]))
		}
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, nil
}

// decodeBinaryResponse parses one response frame into an EvalResponse
// plus the serving bundle generation: the client side of the frame, the
// oracle EncodeBinaryResponse is checked against. Strict like the
// request decoder: padding bits and trailing bytes are rejected.
func decodeBinaryResponse(data []byte) (*EvalResponse, uint64, error) {
	r := &binReader{data: data}
	if n := r.u32(); r.err == nil && int(n) != len(data)-4 {
		r.fail("length prefix %d disagrees with body length %d", n, len(data)-4)
	}
	if k := r.frameHeader(); r.err == nil && k != binKindResponse {
		r.fail("kind %d is not a response", k)
	}
	gen := r.u64()
	degLen := int(r.u16())
	if r.err == nil && degLen > binMaxDegradedLen {
		r.fail("degraded reason of %d bytes", degLen)
	}
	deg := r.take(degLen)
	evaluated := int(r.u32())
	nv := int(r.u32())
	if r.err == nil && nv > binMaxFrameSamples {
		r.fail("%d verdicts exceeds the request bound", nv)
	}
	bitmap := r.take((nv + 7) / 8)
	if r.err != nil {
		return nil, 0, r.err
	}
	resp := &EvalResponse{Degraded: string(deg), Evaluated: evaluated, BundleGeneration: gen}
	if nv > 0 {
		resp.Verdicts = make([]bool, nv)
		for i := range resp.Verdicts {
			resp.Verdicts[i] = bitmap[i/8]&(1<<(i%8)) != 0
		}
	}
	if nv%8 != 0 && bitmap[nv/8]>>(nv%8) != 0 {
		return nil, 0, fmt.Errorf("serve: binary frame: nonzero verdict padding bits")
	}
	na := int(r.u32())
	if r.err == nil && na > nv {
		r.fail("%d alarms for %d verdicts", na, nv)
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	if na > 0 {
		resp.Alarms = make([]int, na)
		for i := range resp.Alarms {
			resp.Alarms[i] = int(r.u32())
		}
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	if r.off != len(data) {
		return nil, 0, fmt.Errorf("serve: binary frame: %d trailing bytes", len(data)-r.off)
	}
	return resp, gen, nil
}

func bitIdentical(t *testing.T, want, got []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sample count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("sample %d arity %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("sample %d value %d: %x, want %x",
					i, j, math.Float64bits(got[i][j]), math.Float64bits(want[i][j]))
			}
		}
	}
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	samples := []Sample{
		{1.5, math.NaN(), math.Inf(1)},
		{math.Inf(-1), math.Copysign(0, -1), 1e308},
		{math.Float64frombits(0x7ff8000000000001), 0, -1}, // NaN payload survives
	}
	frame, err := encodeBinaryRequest(nil, "D-1", samples, 250, 7)
	if err != nil {
		t.Fatal(err)
	}
	br, err := DecodeBinaryRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Release()
	if br.Detector != "D-1" || br.DeadlineMS != 250 || br.DelayMS != 7 {
		t.Fatalf("header fields: %q %d %d", br.Detector, br.DeadlineMS, br.DelayMS)
	}
	bitIdentical(t, samples, br.Samples)
}

func TestBinaryRequestEmptyBatch(t *testing.T) {
	frame, err := encodeBinaryRequest(nil, "D", nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	br, err := DecodeBinaryRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Release()
	if len(br.Samples) != 0 {
		t.Fatalf("decoded %d samples from an empty batch", len(br.Samples))
	}
}

func TestBinaryRequestRejectsRaggedBatch(t *testing.T) {
	if _, err := encodeBinaryRequest(nil, "D", []Sample{{1, 2}, {3}}, 0, 0); err == nil {
		t.Fatal("ragged batch encoded")
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	in := &EvalResponse{
		Detector:  "", // the response frame does not carry the detector ID
		Verdicts:  []bool{true, false, false, true, true, false, true, false, true},
		Alarms:    []int{1, 4, 5, 7, 9},
		Evaluated: 9,
		Degraded:  "",
	}
	frame, err := EncodeBinaryResponse(nil, in, 42)
	if err != nil {
		t.Fatal(err)
	}
	out, gen, err := decodeBinaryResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 42 || out.BundleGeneration != 42 {
		t.Fatalf("generation %d/%d, want 42", gen, out.BundleGeneration)
	}
	if out.Evaluated != 9 || out.Degraded != "" {
		t.Fatalf("evaluated=%d degraded=%q", out.Evaluated, out.Degraded)
	}
	if len(out.Verdicts) != len(in.Verdicts) {
		t.Fatalf("verdict count %d, want %d", len(out.Verdicts), len(in.Verdicts))
	}
	for i := range in.Verdicts {
		if out.Verdicts[i] != in.Verdicts[i] {
			t.Fatalf("verdict %d = %v", i, out.Verdicts[i])
		}
	}
	if len(out.Alarms) != len(in.Alarms) {
		t.Fatalf("alarm count %d, want %d", len(out.Alarms), len(in.Alarms))
	}
	for i := range in.Alarms {
		if out.Alarms[i] != in.Alarms[i] {
			t.Fatalf("alarm %d = %d", i, out.Alarms[i])
		}
	}
}

func TestBinaryResponseDegraded(t *testing.T) {
	in := &EvalResponse{Degraded: "breaker-open"}
	frame, err := EncodeBinaryResponse(nil, in, 3)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := decodeBinaryResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded != "breaker-open" || len(out.Verdicts) != 0 {
		t.Fatalf("degraded round trip: %+v", out)
	}
}

// TestBinaryDecodeStrictness pins the decoder's refusal of malformed
// frames: anything but an exact, self-consistent frame is an error, so
// the round-trip fuzzer can demand fixed-point stability.
func TestBinaryDecodeStrictness(t *testing.T) {
	req, err := encodeBinaryRequest(nil, "D", []Sample{{1, 2}, {3, 4}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := EncodeBinaryResponse(nil, &EvalResponse{Verdicts: []bool{true, false, true}, Evaluated: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(frame []byte, mutate func([]byte)) []byte {
		c := bytes.Clone(frame)
		mutate(c)
		return c
	}
	patchLen := func(b []byte) { // keep the length prefix honest after resizing
		binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	}

	for _, tt := range []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"short-header", req[:6]},
		{"bad-magic", corrupt(req, func(b []byte) { b[4] ^= 0xff })},
		{"bad-version", corrupt(req, func(b []byte) { b[8] = 99 })},
		{"length-prefix-lies", corrupt(req, func(b []byte) { b[0]++ })},
		{"request-trailing-bytes", corrupt(append(bytes.Clone(req), 0), patchLen)},
		{"request-truncated-column", corrupt(req[:len(req)-8], patchLen)},
		{"response-kind-as-request", resp},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if br, err := DecodeBinaryRequest(tt.frame); err == nil {
				br.Release()
				t.Fatal("malformed request frame decoded")
			}
		})
	}

	for _, tt := range []struct {
		name  string
		frame []byte
	}{
		{"request-kind-as-response", req},
		{"response-trailing-bytes", corrupt(append(bytes.Clone(resp), 0), patchLen)},
		{"nonzero-padding-bits", corrupt(resp, func(b []byte) { b[len(b)-5] |= 0x80 })},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := decodeBinaryResponse(tt.frame); err == nil {
				t.Fatal("malformed response frame decoded")
			}
		})
	}

	// Alarm count beyond the verdict count is self-inconsistent.
	bad, err := EncodeBinaryResponse(nil, &EvalResponse{Verdicts: []bool{true}, Alarms: []int{1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Bump the alarm count field (4 bytes before the single alarm index).
	binary.LittleEndian.PutUint32(bad[len(bad)-8:], 2)
	if _, _, err := decodeBinaryResponse(bad); err == nil {
		t.Fatal("alarm count beyond verdicts decoded")
	}
}

func TestBinaryRequestOversizeRejected(t *testing.T) {
	// Hand-build a header claiming more samples than the request bound
	// allows; the decoder must refuse before allocating the flat array.
	var b []byte
	b = appendUint32(b, 0)
	b = appendUint32(b, binMagic)
	b = append(b, binVersion, binKindRequest)
	b = appendUint16(b, 1)
	b = append(b, 'D')
	b = appendUint32(b, 1<<31-1) // sample count
	b = appendUint32(b, 1<<20)   // arity
	b = appendUint64(b, 0)
	b = appendUint64(b, 0)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	if br, err := DecodeBinaryRequest(b); err == nil {
		br.Release()
		t.Fatal("oversize frame decoded")
	}
}
