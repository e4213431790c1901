package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// encoderReference is what appendEvalResponse must reproduce: the
// bytes json.NewEncoder(w).Encode(resp) writes, as writeJSON did.
func encoderReference(t *testing.T, resp *EvalResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkEvalResponse(t *testing.T, resp *EvalResponse) {
	t.Helper()
	want := encoderReference(t, resp)
	if got := appendEvalResponse([]byte("prefix"), resp); !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("appendEvalResponse\n%q\nwant json.Encoder\n%q", got[len("prefix"):], want)
	}
}

func TestAppendEvalResponseMatchesEncoder(t *testing.T) {
	strs := []string{"", "MG-A1", `quo"te\back`, "<a&b>", "tab\tnl\n\x00\x1f\x7f", "\xff\xfe", "é", "  ", "eval-error: serve: evaluation panic: boom"}
	verdicts := [][]bool{nil, {}, {false}, {true, false, true}}
	alarms := [][]int{nil, {}, {1}, {1, 3, 512}, {-7, 0}}
	for _, s := range strs {
		for _, v := range verdicts {
			for _, a := range alarms {
				for _, gen := range []uint64{0, 1, 1<<64 - 1} {
					checkEvalResponse(t, &EvalResponse{Detector: s, Verdicts: v, Alarms: a, Evaluated: len(v), BundleGeneration: gen})
					checkEvalResponse(t, &EvalResponse{Detector: "D", Degraded: s, Evaluated: -1, BundleGeneration: gen})
				}
			}
		}
	}
}

// FuzzAppendEvalResponse holds the evaluate response encoder to
// encoding/json on arbitrary detector and degraded strings (invalid
// UTF-8, HTML metacharacters and line separators included) and on
// arbitrary verdict and alarm slices.
func FuzzAppendEvalResponse(f *testing.F) {
	f.Add("MG-A1", "", []byte{1, 0, 1}, []byte{1, 0, 0, 0, 0, 0, 0, 0}, 3, uint64(1))
	f.Add("<a&b>", "breaker-open", []byte{}, []byte{}, 0, uint64(0))
	f.Add("\xff \"\\", "eval-error: \x00\n ", []byte{0}, []byte{255, 255, 255, 255, 255, 255, 255, 255}, -1, uint64(1<<63))
	f.Fuzz(func(t *testing.T, detector, degraded string, verdictBytes, alarmBytes []byte, evaluated int, gen uint64) {
		resp := &EvalResponse{Detector: detector, Degraded: degraded, Evaluated: evaluated, BundleGeneration: gen}
		if len(verdictBytes) > 0 {
			resp.Verdicts = make([]bool, len(verdictBytes))
			for i, b := range verdictBytes {
				resp.Verdicts[i] = b&1 == 1
			}
		}
		for i := 0; i+8 <= len(alarmBytes); i += 8 {
			var a uint64
			for _, b := range alarmBytes[i : i+8] {
				a = a<<8 | uint64(b)
			}
			resp.Alarms = append(resp.Alarms, int(a))
		}
		checkEvalResponse(t, resp)
	})
}
