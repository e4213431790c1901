package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edem/internal/predicate"
	"edem/internal/telemetry"
)

// testPredicate flags v > 100.
func testPredicate(name string) *predicate.Predicate {
	return &predicate.Predicate{
		Name: name,
		Vars: []string{"v"},
		Clauses: []predicate.Clause{
			{{Var: "v", Index: 0, Op: predicate.GT, Threshold: 100}},
		},
	}
}

func testBundle(ids ...string) *Bundle {
	b := &Bundle{Version: BundleVersion}
	for _, id := range ids {
		b.Detectors = append(b.Detectors, BundleEntry{
			ID: id, Module: "M", Location: "Exit", Predicate: testPredicate(id),
		})
	}
	return b
}

// newTestServer builds a server plus an httptest front end, closed at
// test cleanup.
func newTestServer(t *testing.T, cfg Config, ids ...string) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.New()
	}
	s, err := NewServer(testBundle(ids...), "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func postEval(t *testing.T, base string, req EvalRequest) (int, EvalResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(base+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var ok EvalResponse
	var bad ErrorResponse
	dec := json.NewDecoder(res.Body)
	if res.StatusCode == http.StatusOK {
		if err := dec.Decode(&ok); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := dec.Decode(&bad); err != nil {
			t.Fatal(err)
		}
	}
	return res.StatusCode, ok, bad
}

func TestServeEvaluate(t *testing.T) {
	_, hs := newTestServer(t, Config{}, "D1")
	code, ok, _ := postEval(t, hs.URL, EvalRequest{
		Detector: "D1",
		Samples:  []Sample{{5}, {500}, {math.NaN()}, {101}},
	})
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	wantV := []bool{false, true, false, true}
	if len(ok.Verdicts) != len(wantV) {
		t.Fatalf("verdicts = %v", ok.Verdicts)
	}
	for i := range wantV {
		if ok.Verdicts[i] != wantV[i] {
			t.Fatalf("verdicts = %v, want %v", ok.Verdicts, wantV)
		}
	}
	if len(ok.Alarms) != 2 || ok.Alarms[0] != 2 || ok.Alarms[1] != 4 {
		t.Fatalf("alarms = %v, want [2 4]", ok.Alarms)
	}
	if ok.Evaluated != 4 || ok.Degraded != "" {
		t.Fatalf("evaluated = %d degraded = %q", ok.Evaluated, ok.Degraded)
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{}, "D1")
	// Unknown detector.
	code, _, bad := postEval(t, hs.URL, EvalRequest{Detector: "NOPE", Samples: []Sample{{1}}})
	if code != http.StatusNotFound {
		t.Fatalf("unknown detector: code = %d (%s)", code, bad.Error)
	}
	// Arity mismatch.
	code, _, _ = postEval(t, hs.URL, EvalRequest{Detector: "D1", Samples: []Sample{{1, 2}}})
	if code != http.StatusBadRequest {
		t.Fatalf("arity mismatch: code = %d", code)
	}
	// Empty batch.
	code, _, _ = postEval(t, hs.URL, EvalRequest{Detector: "D1"})
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch: code = %d", code)
	}
}

// TestServeQueueFullSheds saturates a 1-deep queue behind a single
// busy worker and requires the explicit 429 rejection — bounded
// admission, no deadlock, and the queued work still completes.
func TestServeQueueFullSheds(t *testing.T) {
	reg := telemetry.New()
	s, hs := newTestServer(t, Config{
		QueueDepth: 1,
		Workers:    1,
		AllowDelay: true,
		Registry:   reg,
	}, "D1")

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, _ := postEval(t, hs.URL, EvalRequest{
				Detector: "D1", Samples: []Sample{{500}}, DelayMS: 400,
			})
			codes[i] = code
		}(i)
		// Let request 0 reach the worker and request 1 occupy the queue.
		time.Sleep(100 * time.Millisecond)
	}

	// Queue full: this one must shed immediately.
	start := time.Now()
	code, _, bad := postEval(t, hs.URL, EvalRequest{Detector: "D1", Samples: []Sample{{500}}})
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: code = %d (%s), want 429", code, bad.Error)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("shed took %v; rejection must be immediate, not queued", d)
	}
	if got := reg.Counter("serve.sheds").Value(); got != 1 {
		t.Fatalf("serve.sheds = %d, want 1", got)
	}

	// The admitted requests complete normally: shedding degraded the
	// excess, not the queue.
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("admitted request %d: code = %d", i, c)
		}
	}
	if got := reg.Gauge("serve.queue_depth").Value(); got != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", got)
	}
	_ = s
}

// TestServeAdmissionSemaphore saturates admission with concurrent
// delayed requests: with Workers+QueueDepth slots, exactly the k
// requests beyond them shed with 429, the in-flight gauge returns to 0,
// and the server leaves no goroutine behind once its front end closes.
func TestServeAdmissionSemaphore(t *testing.T) {
	const workers, queue, k = 2, 3, 4
	baseline := runtime.NumGoroutine()
	reg := telemetry.New()
	s, err := NewServer(testBundle("D1"), "", Config{
		QueueDepth: queue,
		Workers:    workers,
		AllowDelay: true,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	tr := &http.Transport{}
	hc := &http.Client{Transport: tr}
	body, err := json.Marshal(EvalRequest{Detector: "D1", Samples: []Sample{{500}}, DelayMS: 600})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var sheds, served, other atomic.Int64
	for i := 0; i < workers+queue+k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/evaluate", bytes.NewReader(body))
			if err == nil {
				_, err = Do(hc, req, nil)
			}
			var se *StatusError
			switch {
			case err == nil:
				served.Add(1)
			case errors.As(err, &se) && se.Code == http.StatusTooManyRequests:
				sheds.Add(1)
			default:
				other.Add(1)
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if sheds.Load() != k || served.Load() != workers+queue || other.Load() != 0 {
		t.Fatalf("sheds %d served %d other %d, want %d shed and %d served",
			sheds.Load(), served.Load(), other.Load(), k, workers+queue)
	}
	if got := reg.Counter("serve.sheds").Value(); got != k {
		t.Fatalf("serve.sheds = %d, want %d", got, k)
	}
	if got := reg.Gauge("serve.queue_depth").Value(); got != 0 {
		t.Fatalf("serve.queue_depth after the burst = %d, want 0", got)
	}

	hs.Close()
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after close, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeDeadlineMidBatch fires the deadline part-way through a batch
// several evalCtxStride strides long: the client gets 504, and the
// breaker sees a cancellation, not a failure.
func TestServeDeadlineMidBatch(t *testing.T) {
	reg := telemetry.New()
	s, hs := newTestServer(t, Config{
		Workers:  2,
		Breaker:  BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		Registry: reg,
	}, "D1")
	det := s.bundle.Load().dets["D1"]
	fast := det.eval
	det.eval = func(vs []float64) bool {
		time.Sleep(time.Millisecond)
		return fast(vs)
	}

	samples := make([]Sample, 4*evalCtxStride)
	for i := range samples {
		samples[i] = Sample{float64(i)}
	}
	start := time.Now()
	code, _, bad := postEval(t, hs.URL, EvalRequest{Detector: "D1", Samples: samples, DeadlineMS: 30})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("mid-batch deadline: code = %d (%s), want 504", code, bad.Error)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("504 took %v; the batch must stop at the deadline", d)
	}
	if st := det.breaker.State(); st != Closed {
		t.Fatalf("breaker = %v after a deadline, want closed (threshold 1 would trip on a failure)", st)
	}
	if reg.Counter("serve.eval_errors").Value() != 0 || reg.Counter("serve.breaker_trips").Value() != 0 {
		t.Fatal("a deadline counted as an evaluation failure")
	}
	det.eval = fast
	if code, ok, _ := postEval(t, hs.URL, EvalRequest{Detector: "D1", Samples: samples}); code != http.StatusOK || ok.Evaluated != len(samples) {
		t.Fatalf("after the deadline: code %d evaluated %d", code, ok.Evaluated)
	}
}

// TestServePanicMidBatch panics at sample 300 of a 512-sample batch:
// the client gets 500 under fail-closed, and the breaker counts the
// request as a failure (threshold 1 trips it).
func TestServePanicMidBatch(t *testing.T) {
	reg := telemetry.New()
	s, hs := newTestServer(t, Config{
		Policy:   FailClosed,
		Breaker:  BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		Registry: reg,
	}, "D1")
	det := s.bundle.Load().dets["D1"]
	fast := det.eval
	det.eval = func(vs []float64) bool {
		if vs[0] == 300 {
			panic("synthetic mid-batch fault")
		}
		return fast(vs)
	}

	samples := make([]Sample, 512)
	for i := range samples {
		samples[i] = Sample{float64(i)}
	}
	code, _, bad := postEval(t, hs.URL, EvalRequest{Detector: "D1", Samples: samples})
	if code != http.StatusInternalServerError {
		t.Fatalf("mid-batch panic: code = %d (%s), want 500", code, bad.Error)
	}
	if !strings.Contains(bad.Error, "synthetic mid-batch fault") {
		t.Fatalf("error %q does not carry the panic", bad.Error)
	}
	if st := det.breaker.State(); st != Open {
		t.Fatalf("breaker = %v after a panic, want open (threshold 1)", st)
	}
	if reg.Counter("serve.eval_errors").Value() != 1 || reg.Counter("serve.breaker_trips").Value() != 1 {
		t.Fatalf("eval_errors = %d, breaker_trips = %d, want 1 and 1",
			reg.Counter("serve.eval_errors").Value(), reg.Counter("serve.breaker_trips").Value())
	}
}

// TestServeBreakerCycleFailClosed drives one detector through
// trip → open → half-open → closed while a healthy detector keeps
// serving throughout.
func TestServeBreakerCycleFailClosed(t *testing.T) {
	reg := telemetry.New()
	s, hs := newTestServer(t, Config{
		Policy:   FailClosed,
		Breaker:  BreakerConfig{Threshold: 2, Cooldown: 100 * time.Millisecond},
		Registry: reg,
	}, "BAD", "OK")

	det := s.bundle.Load().dets["BAD"]
	goodEval := det.eval
	det.eval = func([]float64) bool { panic("synthetic detector fault") }

	// Two panicking evaluations trip the breaker; each is an explicit
	// 500 under fail-closed.
	for i := 0; i < 2; i++ {
		code, _, _ := postEval(t, hs.URL, EvalRequest{Detector: "BAD", Samples: []Sample{{1}}})
		if code != http.StatusInternalServerError {
			t.Fatalf("panic eval %d: code = %d, want 500", i, code)
		}
	}
	if got := reg.Counter("serve.breaker_trips").Value(); got != 1 {
		t.Fatalf("serve.breaker_trips = %d, want 1", got)
	}

	// Open circuit: explicit 503 without evaluating.
	code, _, bad := postEval(t, hs.URL, EvalRequest{Detector: "BAD", Samples: []Sample{{1}}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("open circuit: code = %d (%s), want 503", code, bad.Error)
	}

	// The healthy detector is unaffected — per-detector isolation.
	code, ok, _ := postEval(t, hs.URL, EvalRequest{Detector: "OK", Samples: []Sample{{500}}})
	if code != http.StatusOK || len(ok.Alarms) != 1 {
		t.Fatalf("healthy detector: code = %d alarms = %v", code, ok.Alarms)
	}

	// After the cooldown, a successful probe closes the circuit.
	det.eval = goodEval
	time.Sleep(150 * time.Millisecond)
	code, ok, _ = postEval(t, hs.URL, EvalRequest{Detector: "BAD", Samples: []Sample{{500}}})
	if code != http.StatusOK || len(ok.Alarms) != 1 {
		t.Fatalf("half-open probe: code = %d alarms = %v", code, ok.Alarms)
	}
	if st := det.breaker.State(); st != Closed {
		t.Fatalf("breaker state = %v, want closed", st)
	}
	if got := reg.Counter("serve.breaker_transitions").Value(); got != 3 {
		t.Fatalf("serve.breaker_transitions = %d, want 3 (trip, half-open, close)", got)
	}
}

// TestServeFailOpen pins the other degradation policy: evaluation
// faults and open circuits yield 200-with-degraded instead of errors.
func TestServeFailOpen(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Policy:  FailOpen,
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Hour},
	}, "BAD")
	s.bundle.Load().dets["BAD"].eval = func([]float64) bool { panic("synthetic fault") }

	code, ok, _ := postEval(t, hs.URL, EvalRequest{Detector: "BAD", Samples: []Sample{{1}}})
	if code != http.StatusOK {
		t.Fatalf("fail-open eval error: code = %d, want 200", code)
	}
	if ok.Degraded == "" || ok.Evaluated != 0 || len(ok.Verdicts) != 0 {
		t.Fatalf("fail-open eval error: %+v, want degraded empty response", ok)
	}

	// Now tripped: still 200, with the breaker-open reason.
	code, ok, _ = postEval(t, hs.URL, EvalRequest{Detector: "BAD", Samples: []Sample{{1}}})
	if code != http.StatusOK || ok.Degraded != "breaker-open" {
		t.Fatalf("fail-open tripped: code = %d degraded = %q", code, ok.Degraded)
	}
}

func TestServeDeadline(t *testing.T) {
	_, hs := newTestServer(t, Config{AllowDelay: true}, "D1")
	code, _, bad := postEval(t, hs.URL, EvalRequest{
		Detector: "D1", Samples: []Sample{{1}}, DelayMS: 2000, DeadlineMS: 50,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline: code = %d (%s), want 504", code, bad.Error)
	}
}

func TestServeReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.json")
	if err := testBundle("OLD").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	s, err := NewServer(b, path, Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	if code, _, _ := postEval(t, hs.URL, EvalRequest{Detector: "OLD", Samples: []Sample{{1}}}); code != http.StatusOK {
		t.Fatalf("pre-reload: code = %d", code)
	}

	// Swap the bundle file and reload via the admin endpoint.
	if err := testBundle("NEW1", "NEW2").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(hs.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr ReloadResponse
	if err := json.NewDecoder(res.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || len(rr.Detectors) != 2 {
		t.Fatalf("reload: code = %d detectors = %v", res.StatusCode, rr.Detectors)
	}

	if code, _, _ := postEval(t, hs.URL, EvalRequest{Detector: "NEW2", Samples: []Sample{{500}}}); code != http.StatusOK {
		t.Fatalf("post-reload new detector: code = %d", code)
	}
	if code, _, _ := postEval(t, hs.URL, EvalRequest{Detector: "OLD", Samples: []Sample{{1}}}); code != http.StatusNotFound {
		t.Fatalf("post-reload old detector: code = %d, want 404", code)
	}
	if got := reg.Counter("serve.reloads").Value(); got != 1 {
		t.Fatalf("serve.reloads = %d, want 1", got)
	}
}

// TestServeDrainUnderLoad cancels the serve context while a slow
// request is in flight: the request must complete, the drain must
// return nil, and the listener must stop accepting.
func TestServeDrainUnderLoad(t *testing.T) {
	reg := telemetry.New()
	s, err := NewServer(testBundle("D1"), "", Config{
		AllowDelay:   true,
		DrainTimeout: 5 * time.Second,
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	// Slow request in flight...
	type result struct {
		code int
		ok   EvalResponse
	}
	reqDone := make(chan result, 1)
	go func() {
		code, ok, _ := postEval(t, base, EvalRequest{
			Detector: "D1", Samples: []Sample{{500}}, DelayMS: 400, DeadlineMS: 3000,
		})
		reqDone <- result{code, ok}
	}()
	time.Sleep(100 * time.Millisecond)

	// ...when the shutdown signal arrives.
	cancel()

	r := <-reqDone
	if r.code != http.StatusOK || len(r.ok.Alarms) != 1 {
		t.Fatalf("in-flight request during drain: code = %d alarms = %v", r.code, r.ok.Alarms)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drained: the listener is closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestServeCountersWorkerInvariant pins the scheduling invariance of
// the serve counters: the same request stream yields identical
// serve.requests/evals/alarms for any worker count.
func TestServeCountersWorkerInvariant(t *testing.T) {
	counts := func(workers int) (reqs, evals, alarms int64) {
		reg := telemetry.New()
		_, hs := newTestServer(t, Config{Workers: workers, Registry: reg}, "D1")
		for i := 0; i < 5; i++ {
			samples := []Sample{{5}, {500}, {float64(i * 60)}}
			code, _, _ := postEval(t, hs.URL, EvalRequest{Detector: "D1", Samples: samples})
			if code != http.StatusOK {
				t.Fatalf("workers=%d request %d: code = %d", workers, i, code)
			}
		}
		return reg.Counter("serve.requests").Value(),
			reg.Counter("serve.evals").Value(),
			reg.Counter("serve.alarms").Value()
	}
	r1, e1, a1 := counts(1)
	for _, w := range []int{2, 8} {
		r, e, a := counts(w)
		if r != r1 || e != e1 || a != a1 {
			t.Fatalf("workers=%d: (reqs,evals,alarms) = (%d,%d,%d), want (%d,%d,%d)",
				w, r, e, a, r1, e1, a1)
		}
	}
	if e1 != 15 {
		t.Fatalf("evals = %d, want 15", e1)
	}
	// 5 requests × alarms at {500} plus {i*60 > 100} for i ∈ {2,3,4}.
	if a1 != 8 {
		t.Fatalf("alarms = %d, want 8", a1)
	}
}

func TestServeHealthAndDetectors(t *testing.T) {
	_, hs := newTestServer(t, Config{}, "A", "B")
	res, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || h.Status != "ok" || h.Detectors != 2 {
		t.Fatalf("healthz: %d %+v", res.StatusCode, h)
	}

	res, err = http.Get(hs.URL + "/v1/detectors")
	if err != nil {
		t.Fatal(err)
	}
	var ds []DetectorStatus
	if err := json.NewDecoder(res.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(ds) != 2 || ds[0].ID != "A" || ds[1].ID != "B" || ds[0].Breaker != "closed" {
		t.Fatalf("detectors: %+v", ds)
	}
}

// TestServeJSONDecodeCounters pins the decode telemetry: a Client JSON
// request takes the one-pass decoder (no fallback, one decode
// observation), and a body with a case-variant key is decoded by the
// counted encoding/json fallback into the verdicts the binary codec
// gets for the same samples.
func TestServeJSONDecodeCounters(t *testing.T) {
	reg := telemetry.New()
	_, hs := newTestServer(t, Config{Registry: reg}, "D1")
	fallbacks := reg.Counter("serve.json_fallbacks")
	decodes := reg.Histogram("serve.decode_ns")
	samples := []Sample{{5}, {500}, {math.NaN()}, {101}, {math.Inf(1)}}
	ctx := context.Background()

	jsonResp, err := (&Client{Base: hs.URL}).Evaluate(ctx, "D1", samples)
	if err != nil {
		t.Fatal(err)
	}
	if got := fallbacks.Value(); got != 0 {
		t.Fatalf("Client JSON request: serve.json_fallbacks = %d, want 0", got)
	}
	if got := decodes.Count(); got != 1 {
		t.Fatalf("serve.decode_ns count = %d, want 1", got)
	}

	binResp, err := (&Client{Base: hs.URL, Codec: CodecBinary}).Evaluate(ctx, "D1", samples)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Replace(appendJSONRequest(nil, "D1", samples), []byte(`"detector"`), []byte(`"Detector"`), 1)
	res, err := http.Post(hs.URL+"/v1/evaluate", ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var variant EvalResponse
	if err := json.NewDecoder(res.Body).Decode(&variant); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("case-variant key: status %d", res.StatusCode)
	}
	if got := fallbacks.Value(); got != 1 {
		t.Fatalf("case-variant key: serve.json_fallbacks = %d, want 1", got)
	}
	if got := decodes.Count(); got != 3 {
		t.Fatalf("serve.decode_ns count = %d, want 3 (one per request, both codecs)", got)
	}
	for _, r := range []*EvalResponse{jsonResp, &variant} {
		if fmt.Sprint(r.Verdicts, r.Alarms) != fmt.Sprint(binResp.Verdicts, binResp.Alarms) {
			t.Fatalf("verdicts %v alarms %v, binary codec %v %v", r.Verdicts, r.Alarms, binResp.Verdicts, binResp.Alarms)
		}
	}
}

// TestServeStageHistograms pins the per-stage timings: one evaluate
// request, in either codec, adds exactly one observation to each of
// serve.decode_ns, serve.eval_ns and serve.encode_ns.
func TestServeStageHistograms(t *testing.T) {
	reg := telemetry.New()
	_, hs := newTestServer(t, Config{Registry: reg}, "D1")
	stages := []string{"serve.decode_ns", "serve.eval_ns", "serve.encode_ns"}
	ctx := context.Background()
	for i, codec := range []Codec{CodecJSON, CodecBinary} {
		if _, err := (&Client{Base: hs.URL, Codec: codec}).Evaluate(ctx, "D1", []Sample{{5}, {500}}); err != nil {
			t.Fatal(err)
		}
		for _, name := range stages {
			if got := reg.Histogram(name).Count(); got != int64(i+1) {
				t.Fatalf("after %d request(s), codec %v: %s count = %d, want %d", i+1, codec, name, got, i+1)
			}
		}
	}
}

// postAdmin POSTs body to an admin endpoint and returns the status.
func postAdmin(t *testing.T, url, body string) int {
	t.Helper()
	res, err := http.Post(url, ContentTypeJSON, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	return res.StatusCode
}

// TestAdminReloadRejectsMalformedBody: a body that does not decode is
// a 400 that reloads nothing; only an empty body means "re-read the
// current bundle".
func TestAdminReloadRejectsMalformedBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := testBundle("D1").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	s, err := NewServer(testBundle("D1"), path, Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	for _, body := range []string{`{"path": "/does/not/exist.json"`, `{"path": 7}`, `not json`} {
		if code := postAdmin(t, hs.URL+"/admin/reload", body); code != http.StatusBadRequest {
			t.Fatalf("reload with body %q: status %d, want 400", body, code)
		}
	}
	if g, n := generation(s), reg.Counter("serve.reloads").Value(); g != 1 || n != 0 {
		t.Fatalf("after malformed reloads: generation %d, serve.reloads %d; want 1, 0", g, n)
	}
	if code := postAdmin(t, hs.URL+"/admin/reload", ""); code != http.StatusOK || generation(s) != 2 {
		t.Fatalf("empty-body reload: status %d generation %d, want 200 and 2", code, generation(s))
	}
}

// generation reports the monotone generation number of the bundle s
// serves (1 for the initial load, +1 per successful reload).
func generation(s *Server) uint64 { return s.bundle.Load().gen }
