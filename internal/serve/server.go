package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edem/internal/lifecycle"
	"edem/internal/parallel"
	"edem/internal/predicate"
	"edem/internal/telemetry"
)

// DegradePolicy selects what a request gets when its detector cannot
// evaluate (circuit open, or the evaluation itself fails).
type DegradePolicy int

const (
	// FailClosed returns an explicit error (503/500): no verdict is
	// worse than a missing one. The default.
	FailClosed DegradePolicy = iota
	// FailOpen returns a 200 with no alarms and a Degraded reason: the
	// protected system keeps running without detection coverage.
	FailOpen
)

// String returns the flag spelling of the policy.
func (p DegradePolicy) String() string {
	if p == FailOpen {
		return "fail-open"
	}
	return "fail-closed"
}

// ParsePolicy parses the flag spelling.
func ParsePolicy(s string) (DegradePolicy, error) {
	switch s {
	case "fail-closed":
		return FailClosed, nil
	case "fail-open":
		return FailOpen, nil
	default:
		return 0, fmt.Errorf("serve: unknown degradation policy %q (want fail-open or fail-closed)", s)
	}
}

// Config tunes the serving runtime. The zero value selects the
// defaults documented on each field.
type Config struct {
	// QueueDepth is the admission headroom beyond Workers: at most
	// Workers+QueueDepth requests evaluate at once, and a request
	// arriving while all of them are taken is shed with 429 (default 64).
	QueueDepth int
	// Workers is the evaluation concurrency that, with QueueDepth, sizes
	// admission; 0 resolves against the shared parallel budget (all
	// cores). Each admitted request evaluates its whole batch on its own
	// handler goroutine.
	Workers int
	// DefaultDeadline is the per-request evaluation deadline applied
	// when the client sends none (default 2s).
	DefaultDeadline time.Duration
	// DrainTimeout bounds the graceful shutdown: after this long,
	// still-unfinished requests are abandoned (default 10s).
	DrainTimeout time.Duration
	// Policy is the degradation policy (default FailClosed).
	Policy DegradePolicy
	// Breaker tunes the per-detector circuit breakers.
	Breaker BreakerConfig
	// AllowDelay honours the request's delay_ms field (synthetic
	// evaluation latency for load and drain testing). Never enable it
	// on a production service.
	AllowDelay bool
	// WrapEval, when non-nil, wraps each detector's evaluation function
	// at bundle-build time (test instrumentation and future model
	// families; the wrapper must be safe for concurrent use).
	WrapEval func(id string, eval func(values []float64) bool) func(values []float64) bool
	// Registry receives the serve.* metrics; nil falls back to the
	// process default registry at construction time.
	Registry *telemetry.Registry
	// Monitor, when non-nil, enables the detector lifecycle: the
	// feedback journal, drift tracking, shadow evaluation and canary
	// promotion (see lifecycle.go in this package). A nil monitor keeps
	// every lifecycle hook off the request path entirely. The monitor is
	// owned by the caller, which must Close it after the server drains.
	Monitor *lifecycle.Monitor
	// Logf, when non-nil, receives operational log lines (reloads,
	// drain progress).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// servedDetector is one live detector: its bundle entry, its breaker
// and its evaluation counters. eval is the compiled program's Eval
// (wrapped by Config.WrapEval when set); tests substitute it to inject
// faults.
type servedDetector struct {
	entry   BundleEntry
	breaker *Breaker
	eval    func(values []float64) bool
	evals   atomic.Int64
	alarms  atomic.Int64
}

// bundleState is one atomically-swappable generation of loaded
// detectors. In-flight requests hold the generation they resolved
// their detector from, so a reload never changes a request mid-way.
type bundleState struct {
	path string
	// gen is the monotone bundle generation: 1 for the initial load,
	// +1 per successful reload. Responses carry it so clients (and the
	// -race reload hammer) can observe swap atomicity.
	gen  uint64
	ids  []string // sorted, for stable status listings
	dets map[string]*servedDetector
	// src is the bundle the state was built from, retained so a
	// lifecycle rollback after a full promote can rebuild the prior
	// bundle without re-reading its file (which may have changed).
	src *Bundle
}

// Server is the detector evaluation service. Create it with NewServer,
// and expose it with Handler (any http.Server) or Serve (managed
// listener with draining shutdown). It owns no goroutines: every
// request evaluates on the handler goroutine that received it.
type Server struct {
	cfg    Config
	bundle atomic.Pointer[bundleState]
	gens   atomic.Uint64 // bundle generation counter; see bundleState.gen

	// admit is the admission semaphore: a request holds one slot while
	// it evaluates, and finding every slot taken sheds it.
	admit    chan struct{}
	draining atomic.Bool

	reg            *telemetry.Registry
	mRequests      *telemetry.Counter
	mSheds         *telemetry.Counter
	mTrips         *telemetry.Counter
	mTransits      *telemetry.Counter
	mRejections    *telemetry.Counter
	mReloads       *telemetry.Counter
	mEvals         *telemetry.Counter
	mAlarms        *telemetry.Counter
	mEvalErrors    *telemetry.Counter
	mJSONReqs      *telemetry.Counter
	mBinaryReqs    *telemetry.Counter
	mJSONFallbacks *telemetry.Counter
	mCompiled      *telemetry.Counter
	mCompAtoms     *telemetry.Counter
	gInFlight      *telemetry.Gauge
	hRequestNS     *telemetry.Histogram
	hDecodeNS      *telemetry.Histogram
	hEvalNS        *telemetry.Histogram
	hEncodeNS      *telemetry.Histogram

	// Lifecycle state (all inert when monitor is nil). shadow holds the
	// candidate bundle under dual evaluation; canaryPct the percentage
	// of candidate-answerable traffic it serves; prior the bundle a full
	// promote replaced. lcMu serialises lifecycle transitions (load,
	// promote, rollback) — the request path only loads the atomics.
	monitor     *lifecycle.Monitor
	shadow      atomic.Pointer[bundleState]
	prior       atomic.Pointer[priorBundle]
	canaryPct   atomic.Int64
	canarySeq   atomic.Uint64
	lcMu        sync.Mutex
	mPromotions *telemetry.Counter
	mRollbacks  *telemetry.Counter
}

// NewServer builds a server from a validated bundle. path records
// where the bundle came from (may be empty for in-memory bundles;
// SIGHUP-style Reload("") then has no file to re-read).
func NewServer(b *Bundle, path string, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		admit: make(chan struct{}, parallel.Workers(cfg.Workers, 0)+cfg.QueueDepth),
		reg:   cfg.Registry,
	}
	s.mRequests = s.reg.Counter("serve.requests")
	s.mSheds = s.reg.Counter("serve.sheds")
	s.mTrips = s.reg.Counter("serve.breaker_trips")
	s.mTransits = s.reg.Counter("serve.breaker_transitions")
	s.mRejections = s.reg.Counter("serve.breaker_rejections")
	s.mReloads = s.reg.Counter("serve.reloads")
	s.mEvals = s.reg.Counter("serve.evals")
	s.mAlarms = s.reg.Counter("serve.alarms")
	s.mEvalErrors = s.reg.Counter("serve.eval_errors")
	s.mJSONReqs = s.reg.Counter("serve.json_requests")
	s.mBinaryReqs = s.reg.Counter("serve.binary_requests")
	s.mJSONFallbacks = s.reg.Counter("serve.json_fallbacks")
	s.mCompiled = s.reg.Counter("predicate.compile_programs")
	s.mCompAtoms = s.reg.Counter("predicate.compile_atoms")
	s.gInFlight = s.reg.Gauge("serve.queue_depth")
	s.hRequestNS = s.reg.Histogram("serve.request_ns")
	s.hDecodeNS = s.reg.Histogram("serve.decode_ns")
	s.hEvalNS = s.reg.Histogram("serve.eval_ns")
	s.hEncodeNS = s.reg.Histogram("serve.encode_ns")
	s.monitor = cfg.Monitor
	if s.monitor != nil {
		s.mPromotions = s.reg.Counter("lifecycle.promotions")
		s.mRollbacks = s.reg.Counter("lifecycle.rollbacks")
	}

	st, err := s.buildState(b, path)
	if err != nil {
		return nil, err
	}
	s.bundle.Store(st)
	return s, nil
}

// buildState validates the bundle, compiles every predicate into its
// flat threshold program, and wires fresh breakers (reload deliberately
// resets breaker state: a new predicate generation starts with a clean
// slate).
func (s *Server) buildState(b *Bundle, path string) (*bundleState, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	st := &bundleState{
		path: path,
		gen:  s.gens.Add(1),
		dets: make(map[string]*servedDetector, len(b.Detectors)),
		src:  b,
	}
	for _, e := range b.Detectors {
		prog, err := predicate.Compile(e.Predicate)
		if err != nil {
			return nil, fmt.Errorf("serve: detector %q: %w", e.ID, err)
		}
		s.mCompiled.Inc()
		s.mCompAtoms.Add(int64(prog.Atoms()))
		eval := prog.Eval
		if s.cfg.WrapEval != nil {
			eval = s.cfg.WrapEval(e.ID, eval)
		}
		det := &servedDetector{
			entry:   e,
			breaker: NewBreaker(s.cfg.Breaker),
			eval:    eval,
		}
		det.breaker.onTransition = func(from, to BreakerState) {
			s.mTransits.Inc()
			if to == Open {
				s.mTrips.Inc()
			}
		}
		st.dets[e.ID] = det
		st.ids = append(st.ids, e.ID)
	}
	sort.Strings(st.ids)
	return st, nil
}

// Reload loads a bundle file and atomically swaps it in. An empty path
// re-reads the bundle the current generation came from (the SIGHUP
// behaviour). In-flight requests finish on the old generation.
func (s *Server) Reload(path string) ([]string, error) {
	if path == "" {
		path = s.bundle.Load().path
	}
	if path == "" {
		return nil, fmt.Errorf("serve: reload: no bundle path on record")
	}
	b, err := LoadBundle(path)
	if err != nil {
		return nil, err
	}
	st, err := s.buildState(b, path)
	if err != nil {
		return nil, err
	}
	s.bundle.Store(st)
	s.mReloads.Inc()
	s.cfg.Logf("serve: reloaded %d detectors from %s", len(st.ids), path)
	return st.ids, nil
}

// Detectors lists the IDs of the current bundle generation.
func (s *Server) Detectors() []string {
	return append([]string(nil), s.bundle.Load().ids...)
}

// evaluate runs one admitted request's batch. ctx bounds everything,
// including the synthetic AllowDelay sleep.
func (s *Server) evaluate(ctx context.Context, det *servedDetector, samples []Sample, delay time.Duration) ([]bool, error) {
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return evalBatch(ctx, det.eval, samples, nil)
}

// evalBatch evaluates every sample on the calling goroutine with panic
// isolation: a panicking evaluation becomes an error. One compiled
// program eval is tens of nanoseconds and requests already evaluate
// concurrently on their handler goroutines, so a batch is not spread
// further. ctx is checked every evalCtxStride samples, so a deadline
// still stops a large batch part-way. The verdicts reuse dst's memory
// when it has room.
func evalBatch(ctx context.Context, eval func([]float64) bool, samples []Sample, dst []bool) (verdicts []bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			verdicts, err = nil, fmt.Errorf("serve: evaluation panic: %v", r)
		}
	}()
	verdicts = slices.Grow(dst[:0], len(samples))[:len(samples)]
	for i := range samples {
		if i%evalCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		verdicts[i] = eval(samples[i])
	}
	return verdicts, nil
}

// Handler returns the service's HTTP handler on a dedicated mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/detectors", s.handleDetectors)
	mux.HandleFunc("/v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.Handle("/metrics", s.reg)
	mux.HandleFunc("/v1/feedback", s.handleFeedback)
	mux.HandleFunc("/admin/shadow", s.handleShadow)
	mux.HandleFunc("/admin/promote", s.handlePromote)
	mux.HandleFunc("/admin/rollback", s.handleRollback)
	mux.HandleFunc("/admin/baseline", s.handleBaseline)
	mux.HandleFunc("/admin/lifecycle", s.handleLifecycle)
	return mux
}

// Serve runs the service on ln until ctx is cancelled, then drains:
// stop accepting and let in-flight requests finish (bounded by
// DrainTimeout). Returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return RunHTTP(ctx, ln, s.Handler(), HTTPConfig{
		DrainTimeout: s.cfg.DrainTimeout,
		OnDrain:      func() { s.draining.Store(true) },
		Logf:         s.cfg.Logf,
	})
}

// ListenAndServe listens on addr and calls Serve. It reports the bound
// address through onListen (useful with ":0") before serving.
func (s *Server) ListenAndServe(ctx context.Context, addr string, onListen func(addr net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	return s.Serve(ctx, ln)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.bundle.Load()
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining", Detectors: len(st.ids)})
		return
	}
	WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok", Detectors: len(st.ids)})
}

func (s *Server) handleDetectors(w http.ResponseWriter, r *http.Request) {
	st := s.bundle.Load()
	out := make([]DetectorStatus, 0, len(st.ids))
	for _, id := range st.ids {
		d := st.dets[id]
		out = append(out, DetectorStatus{
			ID:       d.entry.ID,
			Module:   d.entry.Module,
			Location: d.entry.Location,
			Clauses:  len(d.entry.Predicate.Clauses),
			Atoms:    d.entry.Predicate.Complexity(),
			Breaker:  d.breaker.State().String(),
			Evals:    d.evals.Load(),
			Alarms:   d.alarms.Load(),
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	var req ReloadRequest
	// An empty body means "re-read the current bundle".
	if !decodeOptionalBody(w, r, &req) {
		return
	}
	ids, err := s.Reload(req.Path)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	st := s.bundle.Load()
	WriteJSON(w, http.StatusOK, ReloadResponse{Path: st.path, Detectors: ids, Generation: st.gen})
}

// decodeOptionalBody decodes an admin request body into v, where an
// empty body means "no fields". Any other decode error, a truncated or
// malformed body included, answers 400 and reports false: the caller
// must then act on nothing.
func decodeOptionalBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(v)
	if err != nil && !errors.Is(err, io.EOF) {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return false
	}
	return true
}

// maxRequestBody bounds an evaluate request body (16 MiB of samples is
// far past any sane batch; reject early rather than buffer).
const maxRequestBody = 16 << 20

// evalCtxStride is how many samples evalBatch evaluates between two
// checks of the request context.
const evalCtxStride = 64

// respPool recycles evaluate response encode buffers, JSON and binary;
// the HTTP layer copies on Write, so a buffer is reusable as soon as
// Write returns.
var respPool = sync.Pool{New: func() any { return new([]byte) }}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mRequests.Inc()
	defer func() { s.hRequestNS.ObserveDuration(time.Since(start)) }()

	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server draining"})
		return
	}

	// Codec negotiation: the request Content-Type selects JSON or the
	// columnar binary batch frame; the response mirrors the request's
	// codec. Error bodies stay JSON under both (clients key off the
	// status code first).
	isBinary := strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeBinary)
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	decodeStart := time.Now()
	var req *BinaryRequest
	var err error
	if isBinary {
		s.mBinaryReqs.Inc()
		req, err = readBinaryRequest(body)
	} else {
		s.mJSONReqs.Inc()
		var fellBack bool
		req, fellBack, err = readJSONRequest(body)
		if fellBack {
			s.mJSONFallbacks.Inc()
		}
	}
	s.hDecodeNS.ObserveDuration(time.Since(decodeStart))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	// req.Samples may alias the pooled parse state; the handler is the
	// only reader (lifecycle mirroring included), so it goes back to the
	// pool when the handler returns.
	defer req.Release()
	// Lifecycle routing: with a candidate loaded, one side serves and
	// the other mirrors after the response is written. A canary routes
	// canaryPct% of candidate-answerable requests to the candidate;
	// everything else (and everything when no candidate is loaded)
	// serves from the live bundle exactly as before.
	st := s.bundle.Load()
	var mirror *bundleState
	canaried := false
	if s.monitor != nil {
		if cand := s.shadow.Load(); cand != nil {
			mirror = cand
			if pct := s.canaryPct.Load(); pct > 0 && cand.dets[req.Detector] != nil &&
				int64(s.canarySeq.Add(1)%100) < pct {
				st, mirror, canaried = cand, st, true
			}
		}
	}
	gen := st.gen
	// writeEval encodes and writes a success or degraded response in the
	// request's codec; error bodies go through writeJSON.
	writeEval := func(code int, resp EvalResponse) {
		encodeStart := time.Now()
		defer func() { s.hEncodeNS.ObserveDuration(time.Since(encodeStart)) }()
		resp.BundleGeneration = gen
		bufp := respPool.Get().(*[]byte)
		defer respPool.Put(bufp)
		contentType := "application/json"
		buf := (*bufp)[:0]
		if isBinary {
			var err error
			if buf, err = EncodeBinaryResponse(buf, &resp, gen); err != nil {
				WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
				return
			}
			contentType = ContentTypeBinary
		} else {
			buf = appendEvalResponse(buf, &resp)
		}
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(code)
		_, _ = w.Write(buf)
		*bufp = buf
	}

	det, ok := st.dets[req.Detector]
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown detector %q", req.Detector)})
		return
	}
	if len(req.Samples) == 0 {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "no samples"})
		return
	}
	arity := len(det.entry.Predicate.Vars)
	for i, sm := range req.Samples {
		if len(sm) != arity {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{
				Error: fmt.Sprintf("sample %d has %d values, detector %s wants %d", i, len(sm), req.Detector, arity)})
			return
		}
	}

	// Per-request deadline: the client's deadline_ms wins over the
	// server default; both bound the evaluation loop.
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// Circuit check. A tripped detector degrades per policy; the other
	// detectors keep serving untouched.
	if !det.breaker.Allow() {
		s.mRejections.Inc()
		if s.cfg.Policy == FailOpen {
			writeEval(http.StatusOK, EvalResponse{
				Detector: req.Detector,
				Degraded: "breaker-open",
			})
			return
		}
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error: fmt.Sprintf("detector %s: circuit open", req.Detector)})
		return
	}

	var delay time.Duration
	if s.cfg.AllowDelay && req.DelayMS > 0 {
		delay = time.Duration(req.DelayMS) * time.Millisecond
	}
	// Bounded admission: with every slot taken the request sheds
	// immediately with an explicit rejection, so in-flight work never
	// grows past Workers+QueueDepth and a shed costs the client one
	// cheap round-trip, not a timeout.
	select {
	case s.admit <- struct{}{}:
	default:
		s.mSheds.Inc()
		det.breaker.Cancel() // shedding is not a detector outcome
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "admission queue full"})
		return
	}
	s.gInFlight.Add(1)
	evalStart := time.Now()
	verdicts, err := s.evaluate(ctx, det, req.Samples, delay)
	s.hEvalNS.ObserveDuration(time.Since(evalStart))
	<-s.admit
	s.gInFlight.Add(-1)

	if err != nil {
		if ctx.Err() != nil {
			// Deadline, not a detector fault.
			det.breaker.Cancel()
			WriteJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "deadline exceeded"})
			return
		}
		s.mEvalErrors.Inc()
		det.breaker.Record(false)
		if s.cfg.Policy == FailOpen {
			writeEval(http.StatusOK, EvalResponse{
				Detector: req.Detector,
				Degraded: "eval-error: " + err.Error(),
			})
			return
		}
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	var alarms []int
	for i, v := range verdicts {
		if v {
			alarms = append(alarms, i+1)
		}
	}
	det.breaker.Record(true)
	det.evals.Add(int64(len(verdicts)))
	det.alarms.Add(int64(len(alarms)))
	s.mEvals.Add(int64(len(verdicts)))
	s.mAlarms.Add(int64(len(alarms)))
	writeEval(http.StatusOK, EvalResponse{
		Detector:  req.Detector,
		Verdicts:  verdicts,
		Alarms:    alarms,
		Evaluated: len(verdicts),
	})
	// Lifecycle post-processing runs after the response bytes are
	// written, so it cannot perturb the served verdict or its
	// latency-to-first-byte.
	if s.monitor != nil {
		s.lifecyclePost(req.Detector, req.Samples, verdicts, st, mirror, canaried)
	}
}
