package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edem/internal/lifecycle"
	"edem/internal/predicate"
	"edem/internal/telemetry"
)

// alwaysPredicate flags every sample (v > -MaxFloat64): the candidate
// that disagrees with testPredicate on all benign traffic.
func alwaysPredicate(name string) *predicate.Predicate {
	return &predicate.Predicate{
		Name: name,
		Vars: []string{"v"},
		Clauses: []predicate.Clause{
			{{Var: "v", Index: 0, Op: predicate.GT, Threshold: -1e308}},
		},
	}
}

// writeBundleFile writes a bundle to a temp file and returns its path.
func writeBundleFile(t *testing.T, b *Bundle) string {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// newLifecycleServer builds a server with a lifecycle monitor over a
// fresh journal directory. Returns the server, the HTTP front end and
// the monitor (closed via cleanup after the server).
func newLifecycleServer(t *testing.T, mcfg lifecycle.MonitorConfig, cfg Config, ids ...string) (*Server, *httptest.Server, *lifecycle.Monitor) {
	t.Helper()
	if mcfg.Dir == "" {
		mcfg.Dir = t.TempDir()
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.New()
	}
	if mcfg.Registry == nil {
		mcfg.Registry = cfg.Registry
	}
	mon, err := lifecycle.NewMonitor(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Monitor = mon
	s, err := NewServer(testBundle(ids...), "", cfg)
	if err != nil {
		mon.Close()
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		mon.Close()
	})
	return s, hs, mon
}

// rawEval POSTs an evaluate request and returns status plus the exact
// response bytes (for byte-identity comparisons).
func rawEval(t *testing.T, base string, req EvalRequest) (int, []byte) {
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
	data, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, data
}

// TestShadowDifferentialByteIdentical pins the shadow contract: with a
// maximally disagreeing candidate under shadow evaluation, every
// client-visible response byte is identical to a server running
// without any lifecycle at all.
func TestShadowDifferentialByteIdentical(t *testing.T) {
	plain, plainHS := newTestServer(t, Config{}, "d1")
	_ = plain
	shadowed, shadowHS, _ := newLifecycleServer(t, lifecycle.MonitorConfig{}, Config{}, "d1")

	cand := &Bundle{Version: BundleVersion, Detectors: []BundleEntry{
		{ID: "d1", Module: "M", Location: "Exit", Predicate: alwaysPredicate("d1")},
	}}
	if _, err := shadowed.LoadShadow(writeBundleFile(t, cand)); err != nil {
		t.Fatal(err)
	}

	reqs := []EvalRequest{
		{Detector: "d1", Samples: []Sample{{0}, {50}, {150}}},
		{Detector: "d1", Samples: []Sample{{-1}, {101}}},
		{Detector: "d1", Samples: []Sample{{99.999}}},
		{Detector: "nope", Samples: []Sample{{1}}},
		{Detector: "d1"},
	}
	for i, req := range reqs {
		codeA, bodyA := rawEval(t, plainHS.URL, req)
		codeB, bodyB := rawEval(t, shadowHS.URL, req)
		if codeA != codeB {
			t.Fatalf("request %d: status %d (plain) != %d (shadowed)", i, codeA, codeB)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Fatalf("request %d: response bytes differ:\nplain:    %s\nshadowed: %s", i, bodyA, bodyB)
		}
	}

	// The disagreements were real — they just never reached the client.
	w := shadowed.monitor.Window()
	if w.Disagreements == 0 {
		t.Fatal("disagreeing candidate produced no recorded disagreements")
	}
	if w.CanaryRequests != 0 {
		t.Fatalf("shadow (no canary) served %d candidate requests", w.CanaryRequests)
	}
}

// TestCanaryAutoRollback drives a canary whose candidate disagrees on
// every sample past the rollback window and asserts the server rolls
// back by itself: candidate dropped, live generation unchanged, diff
// journal populated.
func TestCanaryAutoRollback(t *testing.T) {
	reg := telemetry.New()
	dir := t.TempDir()
	s, hs, mon := newLifecycleServer(t, lifecycle.MonitorConfig{
		Dir:             dir,
		MinRequests:     5,
		MaxDisagreeRate: 0.2,
	}, Config{Registry: reg}, "d1")

	cand := &Bundle{Version: BundleVersion, Detectors: []BundleEntry{
		{ID: "d1", Module: "M", Location: "Exit", Predicate: alwaysPredicate("d1")},
	}}
	if _, err := s.LoadShadow(writeBundleFile(t, cand)); err != nil {
		t.Fatal(err)
	}
	liveGen := generation(s)
	if _, err := s.Promote(50); err != nil {
		t.Fatal(err)
	}

	// Benign traffic: live says false, candidate says true — 100%
	// disagreement. Well past MinRequests the rollback must have fired.
	for i := 0; i < 40; i++ {
		code, _ := rawEval(t, hs.URL, EvalRequest{Detector: "d1", Samples: []Sample{{0}, {1}}})
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}

	st := s.LifecycleStatus()
	if st.State != "idle" {
		t.Fatalf("state after regression = %q, want idle (auto rollback)", st.State)
	}
	if got := generation(s); got != liveGen {
		t.Fatalf("live generation changed across canary rollback: %d -> %d", liveGen, got)
	}
	if st.LastRollback == "" {
		t.Fatal("rollback reason not recorded")
	}
	if v := reg.Counter("lifecycle.rollbacks").Value(); v != 1 {
		t.Fatalf("lifecycle.rollbacks = %d, want 1", v)
	}

	// The diff journal has the disagreeing samples (drain the async
	// writer first).
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := lifecycle.ReadDiffs(filepath.Join(dir, lifecycle.DiffsName))
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("fresh journal has %d torn lines", torn)
	}
	if len(recs) == 0 {
		t.Fatal("no verdict diffs journalled")
	}
	if recs[0].Detector != "d1" || len(recs[0].Index) == 0 {
		t.Fatalf("bad diff record: %+v", recs[0])
	}
}

// TestPromoteFullAndRollback exercises the promoted state: a full
// promote swaps the candidate live, a rollback rebuilds the prior
// bundle under a fresh generation with its original verdicts.
func TestPromoteFullAndRollback(t *testing.T) {
	s, hs, _ := newLifecycleServer(t, lifecycle.MonitorConfig{}, Config{}, "d1")

	cand := &Bundle{Version: BundleVersion, Detectors: []BundleEntry{
		{ID: "d1", Module: "M", Location: "Exit", Predicate: alwaysPredicate("d1")},
	}}
	shResp, err := s.LoadShadow(writeBundleFile(t, cand))
	if err != nil {
		t.Fatal(err)
	}
	prResp, err := s.Promote(100)
	if err != nil {
		t.Fatal(err)
	}
	if prResp.State != "promoted" || prResp.Generation != shResp.Generation {
		t.Fatalf("promote = %+v, want promoted at candidate generation %d", prResp, shResp.Generation)
	}
	// The candidate now serves: benign samples alarm.
	code, resp, _ := postEval(t, hs.URL, EvalRequest{Detector: "d1", Samples: []Sample{{0}}})
	if code != http.StatusOK || len(resp.Alarms) != 1 {
		t.Fatalf("promoted candidate: code %d alarms %v, want an alarm on benign input", code, resp.Alarms)
	}
	if s.lifecycleState() != "promoted" {
		t.Fatalf("state = %q, want promoted", s.lifecycleState())
	}

	rbResp, err := s.Rollback("test")
	if err != nil {
		t.Fatal(err)
	}
	if rbResp.From != "promoted" {
		t.Fatalf("rollback from %q, want promoted", rbResp.From)
	}
	if rbResp.Generation <= prResp.Generation {
		t.Fatalf("rollback generation %d not past promote generation %d (generations must stay monotone)",
			rbResp.Generation, prResp.Generation)
	}
	// Prior verdicts are back: benign samples pass again.
	code, resp, _ = postEval(t, hs.URL, EvalRequest{Detector: "d1", Samples: []Sample{{0}}})
	if code != http.StatusOK || len(resp.Alarms) != 0 {
		t.Fatalf("after rollback: code %d alarms %v, want no alarms", code, resp.Alarms)
	}
	if _, err := s.Rollback("again"); err == nil {
		t.Fatal("second rollback succeeded with nothing to roll back")
	}
}

// TestCanaryBlocksShadowReplace pins the state machine: while a canary
// routes traffic, loading a new candidate is refused.
func TestCanaryBlocksShadowReplace(t *testing.T) {
	s, _, _ := newLifecycleServer(t, lifecycle.MonitorConfig{}, Config{}, "d1")
	cand := &Bundle{Version: BundleVersion, Detectors: []BundleEntry{
		{ID: "d1", Module: "M", Location: "Exit", Predicate: alwaysPredicate("d1")},
	}}
	path := writeBundleFile(t, cand)
	if _, err := s.LoadShadow(path); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Promote(10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadShadow(path); err == nil {
		t.Fatal("LoadShadow succeeded while a canary was active")
	}
	if _, err := s.Rollback(""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadShadow(path); err != nil {
		t.Fatalf("LoadShadow after rollback: %v", err)
	}
}

// TestLifecycleDisabled pins the no-monitor behaviour: lifecycle verbs
// fail with a clear error and the admin surface reports disabled.
func TestLifecycleDisabled(t *testing.T) {
	s, hs := newTestServer(t, Config{}, "d1")
	if _, err := s.LoadShadow("x.json"); err == nil {
		t.Fatal("LoadShadow succeeded without a monitor")
	}
	if _, err := s.Promote(10); err == nil {
		t.Fatal("Promote succeeded without a monitor")
	}
	res, err := http.Get(hs.URL + "/admin/lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st LifecycleStatusResponse
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Fatal("lifecycle reported enabled without a monitor")
	}
	if st.State != "idle" {
		t.Fatalf("state = %q, want idle", st.State)
	}
}

// TestFeedbackJournalled posts feedback over HTTP and reads it back
// from the journal; invalid labels are rejected before touching disk.
func TestFeedbackJournalled(t *testing.T) {
	dir := t.TempDir()
	_, hs, mon := newLifecycleServer(t, lifecycle.MonitorConfig{Dir: dir}, Config{}, "d1")

	post := func(req FeedbackRequest) (int, FeedbackResponse) {
		body, _ := json.Marshal(req)
		res, err := http.Post(hs.URL+"/v1/feedback", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var fr FeedbackResponse
		_ = json.NewDecoder(res.Body).Decode(&fr)
		return res.StatusCode, fr
	}

	code, fr := post(FeedbackRequest{
		Detector: "d1", Alarm: true, Outcome: "false-alarm", Source: "operator",
		Sample: Sample{101.5}, Note: "benign spike",
	})
	if code != http.StatusOK || !fr.Recorded {
		t.Fatalf("feedback: code %d resp %+v", code, fr)
	}
	if code, _ := post(FeedbackRequest{Detector: "d1", Outcome: "not-a-label", Source: "operator"}); code != http.StatusBadRequest {
		t.Fatalf("invalid outcome accepted: code %d", code)
	}
	if code, _ := post(FeedbackRequest{Detector: "d1", Outcome: "benign", Source: "guess"}); code != http.StatusBadRequest {
		t.Fatalf("invalid source accepted: code %d", code)
	}

	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := lifecycle.ReadFeedback(filepath.Join(dir, lifecycle.FeedbackName))
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(recs) != 1 {
		t.Fatalf("journal: %d records, %d torn, want exactly the 1 valid record", len(recs), torn)
	}
	rec := recs[0]
	if rec.Detector != "d1" || rec.Outcome != lifecycle.OutcomeFalseAlarm || rec.Source != lifecycle.SourceOperator {
		t.Fatalf("bad record: %+v", rec)
	}
	if want := lifecycle.EncodeState([]float64{101.5}); !reflect.DeepEqual(rec.State, want) {
		t.Fatalf("state = %v, want %v", rec.State, want)
	}
	if rec.Generation != 1 {
		t.Fatalf("generation = %d, want 1", rec.Generation)
	}
}

// TestCanaryServesCandidateGeneration pins canary routing visibility:
// canaried responses carry the candidate's bundle generation, so a
// client can tell which side answered.
func TestCanaryServesCandidateGeneration(t *testing.T) {
	s, hs, _ := newLifecycleServer(t, lifecycle.MonitorConfig{MinRequests: 1 << 30}, Config{}, "d1")
	cand := &Bundle{Version: BundleVersion, Detectors: []BundleEntry{
		{ID: "d1", Module: "M", Location: "Exit", Predicate: alwaysPredicate("d1")},
	}}
	shResp, err := s.LoadShadow(writeBundleFile(t, cand))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Promote(99); err != nil {
		t.Fatal(err)
	}
	liveGen := generation(s)
	seen := map[uint64]int{}
	for i := 0; i < 100; i++ {
		code, resp, _ := postEval(t, hs.URL, EvalRequest{Detector: "d1", Samples: []Sample{{0}}})
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		seen[resp.BundleGeneration]++
	}
	if seen[shResp.Generation] == 0 {
		t.Fatal("no response served from the candidate at 99% canary")
	}
	if seen[liveGen] == 0 {
		t.Fatal("no response served from live at 99% canary (1% must remain)")
	}
	if unknown := 100 - seen[shResp.Generation] - seen[liveGen]; unknown != 0 {
		t.Fatalf("%d responses from neither live nor candidate generation: %v", unknown, seen)
	}
}

// TestAdminRollbackRejectsMalformedBody: a rollback body that does not
// decode is a 400 that leaves the candidate in place; an empty body
// rolls back as before.
func TestAdminRollbackRejectsMalformedBody(t *testing.T) {
	s, hs, _ := newLifecycleServer(t, lifecycle.MonitorConfig{}, Config{}, "d1")
	cand := &Bundle{Version: BundleVersion, Detectors: []BundleEntry{
		{ID: "d1", Module: "M", Location: "Exit", Predicate: alwaysPredicate("d1")},
	}}
	if _, err := s.LoadShadow(writeBundleFile(t, cand)); err != nil {
		t.Fatal(err)
	}
	gen := generation(s)
	for _, body := range []string{`{"reason": "bad canary"`, `{"reason": 1}`, `[`} {
		if code := postAdmin(t, hs.URL+"/admin/rollback", body); code != http.StatusBadRequest {
			t.Fatalf("rollback with body %q: status %d, want 400", body, code)
		}
	}
	if st := s.lifecycleState(); st != "shadow" || generation(s) != gen {
		t.Fatalf("after malformed rollbacks: state %q generation %d, want shadow and %d", st, generation(s), gen)
	}
	if code := postAdmin(t, hs.URL+"/admin/rollback", ""); code != http.StatusOK {
		t.Fatalf("empty-body rollback: status %d, want 200", code)
	}
	if st := s.lifecycleState(); st != "idle" {
		t.Fatalf("after rollback: state %q, want idle", st)
	}
}
