package serve

import (
	"bytes"
	"math"
	"testing"
)

// FuzzBinaryFrameRoundTrip asserts write stability of the columnar
// batch codec, dispatching on the frame kind byte: any bytes the strict
// request or response decoder accepts must re-encode to a frame the
// decoder accepts again, and encode(decode(x)) must be a fixed point
// after the first write (which may normalise exotic-but-valid frames,
// e.g. a declared arity on a zero-sample batch).
func FuzzBinaryFrameRoundTrip(f *testing.F) {
	if seed, err := encodeBinaryRequest(nil, "D-1", []Sample{
		{1.5, math.NaN()}, {math.Inf(-1), math.Copysign(0, -1)},
	}, 250, 7); err == nil {
		f.Add(seed)
	}
	if seed, err := encodeBinaryRequest(nil, "", nil, 0, 0); err == nil {
		f.Add(seed)
	}
	if seed, err := EncodeBinaryResponse(nil, &EvalResponse{
		Verdicts: []bool{true, false, true}, Alarms: []int{1, 3}, Evaluated: 3,
	}, 9); err == nil {
		f.Add(seed)
	}
	if seed, err := EncodeBinaryResponse(nil, &EvalResponse{Degraded: "breaker-open"}, 1); err == nil {
		f.Add(seed)
	}
	f.Add([]byte("EDBF garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if br, err := DecodeBinaryRequest(data); err == nil {
			first, err := encodeBinaryRequest(nil, br.Detector, br.Samples, br.DeadlineMS, br.DelayMS)
			if err != nil {
				t.Fatalf("re-encode of accepted request failed: %v", err)
			}
			br.Release()
			again, err := DecodeBinaryRequest(first)
			if err != nil {
				t.Fatalf("re-decode of own request encoding failed: %v", err)
			}
			second, err := encodeBinaryRequest(nil, again.Detector, again.Samples, again.DeadlineMS, again.DelayMS)
			again.Release()
			if err != nil {
				t.Fatalf("second request encode failed: %v", err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("request encode cycle not stable:\nfirst:  %x\nsecond: %x", first, second)
			}
		}
		if resp, gen, err := decodeBinaryResponse(data); err == nil {
			first, err := EncodeBinaryResponse(nil, resp, gen)
			if err != nil {
				t.Fatalf("re-encode of accepted response failed: %v", err)
			}
			resp2, gen2, err := decodeBinaryResponse(first)
			if err != nil {
				t.Fatalf("re-decode of own response encoding failed: %v", err)
			}
			if gen2 != gen {
				t.Fatalf("generation not stable: %d -> %d", gen, gen2)
			}
			second, err := EncodeBinaryResponse(nil, resp2, gen2)
			if err != nil {
				t.Fatalf("second response encode failed: %v", err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("response encode cycle not stable:\nfirst:  %x\nsecond: %x", first, second)
			}
		}
	})
}
