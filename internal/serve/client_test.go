package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// wireCodec selects the evaluate wire format a testClient speaks.
type wireCodec int

const (
	codecJSON wireCodec = iota
	codecBinary
)

func (c wireCodec) String() string {
	if c == codecBinary {
		return "binary"
	}
	return "json"
}

// testClient posts evaluate batches the way an external caller does:
// the body in its codec (appendJSONRequest or encodeBinaryRequest), one
// attempt through Do, the reply decoded in the same codec. Both codecs
// yield bit-identical verdicts.
type testClient struct {
	base  string
	codec wireCodec
}

func (c *testClient) evaluate(ctx context.Context, detector string, samples []Sample) (*EvalResponse, error) {
	body, contentType := appendJSONRequest(nil, detector, samples), ContentTypeJSON
	if c.codec == codecBinary {
		var err error
		if body, err = encodeBinaryRequest(nil, detector, samples, 0, 0); err != nil {
			return nil, err
		}
		contentType = ContentTypeBinary
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if c.codec == codecBinary {
		data, err := Do(nil, req, nil)
		if err != nil {
			return nil, err
		}
		out, _, err := decodeBinaryResponse(data)
		return out, err
	}
	var out EvalResponse
	if _, err := Do(nil, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TestClientDoesNotRetryClientErrors: Do makes one attempt per call
// and returns any non-2xx reply as a *StatusError carrying the code and
// the ErrorResponse message, a shed (429) as much as a client error
// (404).
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	for _, code := range []int{http.StatusNotFound, http.StatusTooManyRequests} {
		var calls atomic.Int64
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "refused"})
		}))
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/evaluate",
			bytes.NewReader(appendJSONRequest(nil, "NOPE", []Sample{{1}})))
		if err != nil {
			t.Fatal(err)
		}
		_, err = Do(nil, req, nil)
		hs.Close()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != code || se.Msg != "refused" {
			t.Fatalf("err = %v, want a %d StatusError", err, code)
		}
		if calls.Load() != 1 {
			t.Fatalf("%d: calls = %d, want 1 (no retries)", code, calls.Load())
		}
	}
}

func TestClientEvaluateChunks(t *testing.T) {
	// A real server end to end: 10 samples in chunks of 3, alarms
	// re-indexed into the caller's numbering.
	_, hs := newTestServer(t, Config{}, "D1")
	c := &testClient{base: hs.URL}
	samples := make([]Sample, 10)
	for i := range samples {
		samples[i] = Sample{float64(i * 30)} // >100 from i=4 on
	}
	resp, err := evaluateChunks(context.Background(), c, "D1", samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Evaluated != 10 || len(resp.Verdicts) != 10 {
		t.Fatalf("resp = %+v", resp)
	}
	want := []int{5, 6, 7, 8, 9, 10} // 1-based indices of i=4..9
	if len(resp.Alarms) != len(want) {
		t.Fatalf("alarms = %v, want %v", resp.Alarms, want)
	}
	for i := range want {
		if resp.Alarms[i] != want[i] {
			t.Fatalf("alarms = %v, want %v", resp.Alarms, want)
		}
	}
}

// evaluateChunks re-validates a large batch by splitting it into
// chunks of at most chunk samples, evaluating each, and merging the responses — alarms are
// re-indexed into the caller's 1-based sample numbering.
func evaluateChunks(ctx context.Context, c *testClient, detector string, samples []Sample, chunk int) (*EvalResponse, error) {
	out := &EvalResponse{Detector: detector}
	for lo := 0; lo < len(samples); lo += chunk {
		hi := lo + chunk
		if hi > len(samples) {
			hi = len(samples)
		}
		resp, err := c.evaluate(ctx, detector, samples[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("serve: chunk [%d,%d): %w", lo, hi, err)
		}
		if resp.Degraded != "" && out.Degraded == "" {
			out.Degraded = resp.Degraded
		}
		out.Verdicts = append(out.Verdicts, resp.Verdicts...)
		for _, a := range resp.Alarms {
			out.Alarms = append(out.Alarms, lo+a)
		}
		out.Evaluated += resp.Evaluated
	}
	return out, nil
}
