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
	"time"
)

// flakyServer sheds the first n evaluate requests with 429, then
// answers with a fixed response.
func flakyServer(t *testing.T, shedFirst int64, resp EvalResponse) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= shedFirst {
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "queue full"})
			return
		}
		var req EvalRequest
		json.NewDecoder(r.Body).Decode(&req)
		resp.Detector = req.Detector
		resp.Evaluated = len(req.Samples)
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(hs.Close)
	return hs, &calls
}

func TestClientRetriesSheds(t *testing.T) {
	hs, calls := flakyServer(t, 2, EvalResponse{Verdicts: []bool{true}, Alarms: []int{1}})
	c := &Client{Base: hs.URL, Backoff: time.Millisecond}
	resp, err := c.Evaluate(context.Background(), "D1", []Sample{{500}})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3 (two sheds then success)", calls.Load())
	}
	if len(resp.Alarms) != 1 || resp.Detector != "D1" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "unknown detector"})
	}))
	defer hs.Close()
	c := &Client{Base: hs.URL, Backoff: time.Millisecond}
	_, err := c.Evaluate(context.Background(), "NOPE", []Sample{{1}})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("err = %v, want 404 StatusError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (no retries on 404)", calls.Load())
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	hs, calls := flakyServer(t, 1<<30, EvalResponse{})
	c := &Client{Base: hs.URL, MaxRetries: 2, Backoff: time.Millisecond}
	_, err := c.Evaluate(context.Background(), "D1", []Sample{{1}})
	if err == nil {
		t.Fatal("want error after exhausted retries")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want wrapped 429", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3 (initial + 2 retries)", calls.Load())
	}
}

// TestClientDeadlineAwareBackoff pins the no-futile-sleep rule: with a
// context budget smaller than the next backoff, the client gives up
// immediately rather than sleeping into the deadline.
func TestClientDeadlineAwareBackoff(t *testing.T) {
	hs, calls := flakyServer(t, 1<<30, EvalResponse{})
	c := &Client{Base: hs.URL, Backoff: time.Hour}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Evaluate(ctx, "D1", []Sample{{1}})
	if err == nil {
		t.Fatal("want error")
	}
	if d := time.Since(start); d > 300*time.Millisecond {
		t.Fatalf("gave up after %v; must not sleep toward an unreachable deadline", d)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

func TestClientEvaluateChunks(t *testing.T) {
	// A real server end to end: 10 samples in chunks of 3, alarms
	// re-indexed into the caller's numbering.
	_, hs := newTestServer(t, Config{}, "D1")
	c := &Client{Base: hs.URL, Backoff: time.Millisecond}
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
// chunks of at most chunk samples, evaluating each with
// the full retry policy, and merging the responses — alarms are
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
