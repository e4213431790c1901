package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClientDoesNotRetryClientErrors: the client makes one attempt per
// call and returns any non-2xx reply as a *StatusError, a shed (429)
// as much as a client error (404).
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	for _, code := range []int{http.StatusNotFound, http.StatusTooManyRequests} {
		var calls atomic.Int64
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "refused"})
		}))
		c := &Client{Base: hs.URL}
		_, err := c.Evaluate(context.Background(), "NOPE", []Sample{{1}})
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
	c := &Client{Base: hs.URL}
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
func evaluateChunks(ctx context.Context, c *Client, detector string, samples []Sample, chunk int) (*EvalResponse, error) {
	out := &EvalResponse{Detector: detector}
	for lo := 0; lo < len(samples); lo += chunk {
		hi := lo + chunk
		if hi > len(samples) {
			hi = len(samples)
		}
		resp, err := c.Evaluate(ctx, detector, samples[lo:hi])
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
