package serve

import (
	"encoding/json"
	"math"
	"testing"
)

// appendJSONRequest appends the JSON evaluate body for detector and
// samples, byte-identical to json.Marshal(EvalRequest{Detector:
// detector, Samples: samples}): the client side of the JSON codec, with
// which the test client, the decoder tests, the fuzzer and the
// benchmarks build their bodies.
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

func TestSampleRoundTripNaNInf(t *testing.T) {
	in := Sample{1.5, math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 1e308, math.Float64frombits(0x7ff8000000000001)}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Sample
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if math.Float64bits(in[i]) != math.Float64bits(out[i]) {
			t.Errorf("value %d: %x -> %x", i, math.Float64bits(in[i]), math.Float64bits(out[i]))
		}
	}
}

func TestSampleDecodeMixedForms(t *testing.T) {
	var s Sample
	if err := json.Unmarshal([]byte(`[1, "7ff0000000000000", 2.5]`), &s); err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 || !math.IsInf(s[1], 1) || s[2] != 2.5 {
		t.Fatalf("decoded %v", s)
	}
}

func TestSampleDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{`["xyz"]`, `[true]`, `{"a":1}`, `["7ff00000000000000000"]`} {
		var s Sample
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("decode %s should fail, got %v", bad, s)
		}
	}
}

// FuzzSampleRoundTrip asserts write stability of the state-sample
// transport: anything the decoder accepts must re-encode and re-decode
// to bit-identical values.
func FuzzSampleRoundTrip(f *testing.F) {
	f.Add(`[1,2.5,-3]`)
	f.Add(`["7ff8000000000000","fff0000000000000",0]`)
	f.Add(`[1e308,-0.0,"0"]`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, data string) {
		var s Sample
		if err := json.Unmarshal([]byte(data), &s); err != nil {
			t.Skip()
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-encode of accepted sample failed: %v", err)
		}
		var again Sample
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v (enc %s)", err, enc)
		}
		if len(again) != len(s) {
			t.Fatalf("round trip changed length: %d -> %d", len(s), len(again))
		}
		for i := range s {
			if math.Float64bits(s[i]) != math.Float64bits(again[i]) {
				t.Fatalf("value %d not bit-stable: %x -> %x (enc %s)",
					i, math.Float64bits(s[i]), math.Float64bits(again[i]), enc)
			}
		}
	})
}
