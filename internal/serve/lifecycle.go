package serve

// Detector lifecycle: shadow evaluation, canary promotion and
// automatic rollback, built on the server's atomic bundle-swap and
// generation machinery and accounted by a lifecycle.Monitor
// (internal/lifecycle). The state machine:
//
//	idle ──LoadShadow──▶ shadow ──Promote(1..99)──▶ canary
//	  ▲                     │                          │
//	  │                  Rollback                 Promote(100)
//	  │                     │                          │
//	  └─────────────────────┴──◀── rollback ──── promoted
//
// In shadow and canary states every evaluate request that both bundles
// can answer is dual-evaluated: the routed side's verdict is served,
// the mirrored side runs after the response bytes are written (so the
// client-visible response is byte-identical with shadowing on or off),
// and per-sample disagreements are journalled. While a canary routes
// traffic, the monitor's disagreement and alarm-regression thresholds
// can trigger an automatic rollback, which drops the candidate and
// returns all traffic to the unchanged live generation. A full promote
// (100%) swaps the candidate in as the live bundle and remembers the
// prior bundle so a later rollback can rebuild it under a fresh
// generation.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"edem/internal/lifecycle"
)

// errLifecycleDisabled reports lifecycle verbs on a server without a
// monitor.
var errLifecycleDisabled = fmt.Errorf("serve: lifecycle disabled (start serve with -lifecycle DIR)")

// priorBundle remembers the bundle a full promote replaced, so a
// rollback can rebuild it (with a fresh monotone generation — the
// generation counter never goes backwards, even when the predicates do).
type priorBundle struct {
	b    *Bundle
	path string
	gen  uint64 // the generation the bundle served under, for status
}

// LoadShadow loads the bundle at path as the shadow candidate: it is
// dual-evaluated beside the live bundle on every request but serves no
// traffic until promoted. Loading a new candidate replaces the current
// one; it is refused while a canary routes traffic (roll back first).
func (s *Server) LoadShadow(path string) (*ShadowResponse, error) {
	if s.monitor == nil {
		return nil, errLifecycleDisabled
	}
	if path == "" {
		return nil, fmt.Errorf("serve: shadow needs a bundle path")
	}
	s.lcMu.Lock()
	defer s.lcMu.Unlock()
	if s.canaryPct.Load() > 0 {
		return nil, fmt.Errorf("serve: canary at %d%% is active; roll back before loading a new candidate", s.canaryPct.Load())
	}
	b, err := LoadBundle(path)
	if err != nil {
		return nil, err
	}
	st, err := s.buildState(b, path)
	if err != nil {
		return nil, err
	}
	s.shadow.Store(st)
	s.monitor.ResetWindow()
	s.cfg.Logf("serve: shadowing %d detectors from %s (candidate generation %d)", len(st.ids), path, st.gen)
	return &ShadowResponse{Path: path, Detectors: st.ids, Generation: st.gen}, nil
}

// Promote routes percent% of candidate-answerable traffic to the
// shadow candidate (1–99: canary), or swaps the candidate in as the
// live bundle (100: full promote, prior bundle retained for rollback).
func (s *Server) Promote(percent int) (*PromoteResponse, error) {
	if s.monitor == nil {
		return nil, errLifecycleDisabled
	}
	if percent < 1 || percent > 100 {
		return nil, fmt.Errorf("serve: promote percent %d out of range [1, 100]", percent)
	}
	s.lcMu.Lock()
	defer s.lcMu.Unlock()
	cand := s.shadow.Load()
	if cand == nil {
		return nil, fmt.Errorf("serve: no shadow candidate to promote (load one first)")
	}
	if percent < 100 {
		s.canaryPct.Store(int64(percent))
		s.monitor.ResetWindow()
		s.cfg.Logf("serve: canary at %d%% to candidate generation %d", percent, cand.gen)
		return &PromoteResponse{State: "canary", Percent: percent, Generation: s.bundle.Load().gen, CandidateGeneration: cand.gen}, nil
	}
	cur := s.bundle.Load()
	s.prior.Store(&priorBundle{b: cur.src, path: cur.path, gen: cur.gen})
	s.bundle.Store(cand)
	s.shadow.Store(nil)
	s.canaryPct.Store(0)
	s.monitor.ResetWindow()
	s.monitor.ResetDrift()
	s.mPromotions.Inc()
	s.cfg.Logf("serve: promoted candidate generation %d to live (prior generation %d retained for rollback)", cand.gen, cur.gen)
	return &PromoteResponse{State: "promoted", Percent: 100, Generation: cand.gen, CandidateGeneration: cand.gen}, nil
}

// Rollback abandons the candidate: in shadow or canary state it drops
// the candidate and all traffic stays on the (unchanged) live
// generation; after a full promote it rebuilds the prior bundle as the
// live one under a fresh generation. Returns an error when there is
// nothing to roll back.
func (s *Server) Rollback(reason string) (*RollbackResponse, error) {
	if s.monitor == nil {
		return nil, errLifecycleDisabled
	}
	if reason == "" {
		reason = "operator request"
	}
	s.lcMu.Lock()
	defer s.lcMu.Unlock()
	return s.rollbackLocked(reason)
}

func (s *Server) rollbackLocked(reason string) (*RollbackResponse, error) {
	if cand := s.shadow.Load(); cand != nil {
		s.shadow.Store(nil)
		s.canaryPct.Store(0)
		s.monitor.ResetWindow()
		s.monitor.NoteRollback(reason)
		s.mRollbacks.Inc()
		live := s.bundle.Load()
		s.cfg.Logf("serve: rollback (%s): dropped candidate generation %d, all traffic on live generation %d",
			reason, cand.gen, live.gen)
		return &RollbackResponse{From: "candidate", Reason: reason, Generation: live.gen}, nil
	}
	if pb := s.prior.Load(); pb != nil {
		st, err := s.buildState(pb.b, pb.path)
		if err != nil {
			return nil, fmt.Errorf("serve: rollback: rebuilding prior bundle: %w", err)
		}
		s.bundle.Store(st)
		s.prior.Store(nil)
		s.monitor.ResetWindow()
		s.monitor.ResetDrift()
		s.monitor.NoteRollback(reason)
		s.mRollbacks.Inc()
		s.cfg.Logf("serve: rollback (%s): restored prior bundle %s as generation %d (was generation %d before promote)",
			reason, pb.path, st.gen, pb.gen)
		return &RollbackResponse{From: "promoted", Reason: reason, Generation: st.gen}, nil
	}
	return nil, fmt.Errorf("serve: nothing to roll back")
}

// autoRollback is the monitor-triggered canary rollback. The monitor
// latches its verdict so this runs at most once per candidate window;
// the re-check under the lock covers an operator transition racing the
// verdict.
func (s *Server) autoRollback(reason string) {
	s.lcMu.Lock()
	defer s.lcMu.Unlock()
	if s.shadow.Load() == nil || s.canaryPct.Load() == 0 {
		return
	}
	if _, err := s.rollbackLocked("auto: " + reason); err != nil {
		s.cfg.Logf("serve: auto-rollback failed: %v", err)
	}
}

// lifecycleState names the current lifecycle mode.
func (s *Server) lifecycleState() string {
	if s.shadow.Load() != nil {
		if s.canaryPct.Load() > 0 {
			return "canary"
		}
		return "shadow"
	}
	if s.prior.Load() != nil {
		return "promoted"
	}
	return "idle"
}

// LifecycleStatus assembles the operator status: state, generations,
// the shadow/canary window and the deterministic drift report.
func (s *Server) LifecycleStatus() *LifecycleStatusResponse {
	live := s.bundle.Load()
	resp := &LifecycleStatusResponse{
		State:          s.lifecycleState(),
		LivePath:       live.path,
		LiveGeneration: live.gen,
		Enabled:        s.monitor != nil,
	}
	if cand := s.shadow.Load(); cand != nil {
		resp.CandidatePath = cand.path
		resp.CandidateGeneration = cand.gen
		resp.CanaryPercent = int(s.canaryPct.Load())
	}
	if pb := s.prior.Load(); pb != nil {
		resp.PriorPath = pb.path
		resp.PriorGeneration = pb.gen
	}
	if s.monitor != nil {
		resp.Window = s.monitor.Window()
		resp.HasBaseline = s.monitor.HasBaseline()
		resp.Drift = s.monitor.Drift()
		resp.FeedbackRecords = s.monitor.FeedbackCount()
		resp.LastRollback = s.monitor.LastRollback()
	}
	return resp
}

// evalMirror evaluates the non-served side of a dual evaluation
// through the same panic-isolated batch path as serving, but without
// touching breakers, admission or the request deadline — mirror
// pressure must never shed or trip the serving path. ok is false on
// arity mismatch or evaluation failure. The verdicts reuse dst's memory
// when it has room.
func (s *Server) evalMirror(st *bundleState, detID string, samples []Sample, dst []bool) (verdicts []bool, ok bool) {
	det := st.dets[detID]
	if det == nil {
		return nil, false
	}
	if len(samples) > 0 && len(samples[0]) != len(det.entry.Predicate.Vars) {
		return nil, false
	}
	verdicts, err := evalBatch(context.Background(), det.eval, samples, dst)
	return verdicts, err == nil
}

// mirrorScratch is lifecyclePost's per-request memory: the request's
// samples as the [][]float64 the monitor takes, and the mirror's
// verdicts. The monitor keeps neither.
type mirrorScratch struct {
	samples  [][]float64
	verdicts []bool
}

var mirrorScratches = sync.Pool{New: func() any { return new(mirrorScratch) }}

// lifecyclePost runs after the response bytes are written: it mirrors
// the evaluation onto the other bundle (when a candidate is loaded),
// records the verdict diff, feeds the drift tracker with the live
// side's behaviour, and applies the monitor's rollback verdict. It
// runs before the handler returns the pooled request buffers —
// everything it retains (journal records) is copied.
func (s *Server) lifecyclePost(detID string, samples []Sample, servedV []bool,
	servedSt, mirrorSt *bundleState, canaried bool) {
	sc := mirrorScratches.Get().(*mirrorScratch)
	vals := sc.samples[:0]
	for _, x := range samples {
		vals = append(vals, x)
	}
	defer func() {
		clear(vals) // drop the pooled request buffers
		sc.samples = vals[:0]
		mirrorScratches.Put(sc)
	}()
	// The drift tracker must see the LIVE bundle's behaviour: the served
	// verdicts when live served, the mirror's when a canary served. A
	// failed mirror on a canaried request leaves no live verdicts to
	// observe — that request contributes nothing to drift.
	liveV, liveOK := servedV, !canaried
	if mirrorSt != nil {
		mirrorV, ok := s.evalMirror(mirrorSt, detID, samples, sc.verdicts)
		if mirrorV != nil {
			sc.verdicts = mirrorV
		}
		if ok {
			candV := servedV
			liveGen, candGen := servedSt.gen, mirrorSt.gen
			served := "live"
			if canaried {
				liveV, liveOK = mirrorV, true
				liveGen, candGen = mirrorSt.gen, servedSt.gen
				served = "candidate"
			} else {
				candV = mirrorV
			}
			rollback, reason := s.monitor.RecordShadow(detID, served, liveV, candV,
				vals, liveGen, candGen, canaried)
			if rollback {
				s.autoRollback(reason)
			}
		}
	}
	if liveOK {
		s.monitor.ObserveLive(detID, vals, liveV)
	}
}

// --- HTTP surface -----------------------------------------------------

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	if s.monitor == nil {
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: errLifecycleDisabled.Error()})
		return
	}
	var req FeedbackRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	rec := lifecycle.FeedbackRecord{
		UnixMS:     time.Now().UnixMilli(),
		Detector:   req.Detector,
		Generation: s.bundle.Load().gen,
		Alarm:      req.Alarm,
		Outcome:    lifecycle.Outcome(req.Outcome),
		Source:     lifecycle.Source(req.Source),
		State:      lifecycle.EncodeState(req.Sample),
		Note:       req.Note,
	}
	if err := s.monitor.RecordFeedback(rec); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, FeedbackResponse{Recorded: true, Generation: rec.Generation})
}

func (s *Server) handleShadow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	var req ShadowRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	resp, err := s.LoadShadow(req.Path)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	var req PromoteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	resp, err := s.Promote(req.Percent)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	var req RollbackRequest
	if !decodeOptionalBody(w, r, &req) {
		return
	}
	resp, err := s.Rollback(req.Reason)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBaseline(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	if s.monitor == nil {
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: errLifecycleDisabled.Error()})
		return
	}
	s.monitor.Baseline()
	s.cfg.Logf("serve: drift baseline frozen")
	WriteJSON(w, http.StatusOK, s.LifecycleStatus())
}

func (s *Server) handleLifecycle(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.LifecycleStatus())
}

// --- Wire types -------------------------------------------------------

// FeedbackRequest is the POST /v1/feedback body: a ground-truth label
// for a served verdict, journalled (fsynced) before the 200 returns.
type FeedbackRequest struct {
	// Detector is the bundle entry the labelled verdict came from.
	Detector string `json:"detector"`
	// Alarm is the verdict being labelled.
	Alarm bool `json:"alarm"`
	// Outcome is the label: "true-alarm", "false-alarm",
	// "missed-failure" or "benign".
	Outcome string `json:"outcome"`
	// Source tells where the label came from: "operator" or
	// "golden-run".
	Source string `json:"source"`
	// Sample is the sampled state the verdict was for (optional; hex
	// bit patterns accepted for non-finite values, like /v1/evaluate).
	Sample Sample `json:"sample,omitempty"`
	// Note is free-form operator context (optional).
	Note string `json:"note,omitempty"`
}

// FeedbackResponse acknowledges a journalled feedback record.
type FeedbackResponse struct {
	Recorded bool `json:"recorded"`
	// Generation is the live bundle generation the record was stamped
	// with.
	Generation uint64 `json:"generation"`
}

// ShadowRequest is the POST /admin/shadow body.
type ShadowRequest struct {
	// Path is the candidate bundle file to load for shadow evaluation.
	Path string `json:"path"`
}

// ShadowResponse reports the loaded candidate.
type ShadowResponse struct {
	Path      string   `json:"path"`
	Detectors []string `json:"detectors"`
	// Generation is the candidate's bundle generation (it gets one from
	// the same monotone counter as live reloads).
	Generation uint64 `json:"generation"`
}

// PromoteRequest is the POST /admin/promote body.
type PromoteRequest struct {
	// Percent routes that percentage of candidate-answerable traffic to
	// the candidate (1–99: canary; 100: full promote).
	Percent int `json:"percent"`
}

// PromoteResponse reports the promotion.
type PromoteResponse struct {
	// State is "canary" (partial) or "promoted" (full).
	State   string `json:"state"`
	Percent int    `json:"percent"`
	// Generation is the live bundle generation after the promotion;
	// CandidateGeneration the candidate's (equal after a full promote).
	Generation          uint64 `json:"generation"`
	CandidateGeneration uint64 `json:"candidate_generation"`
}

// RollbackRequest is the (optional) POST /admin/rollback body.
type RollbackRequest struct {
	// Reason is recorded in the lifecycle status (defaults to
	// "operator request").
	Reason string `json:"reason,omitempty"`
}

// RollbackResponse reports a completed rollback.
type RollbackResponse struct {
	// From is "candidate" (a shadow/canary was dropped; live bundle
	// untouched) or "promoted" (the prior bundle was rebuilt as live).
	From   string `json:"from"`
	Reason string `json:"reason"`
	// Generation is the live bundle generation after the rollback.
	Generation uint64 `json:"generation"`
}

// LifecycleStatusResponse is the GET /admin/lifecycle body — the full
// operator view of the lifecycle state machine.
type LifecycleStatusResponse struct {
	// Enabled is false when the server runs without a lifecycle monitor
	// (every other monitor-backed field is then zero).
	Enabled bool `json:"enabled"`
	// State is "idle", "shadow", "canary" or "promoted".
	State          string `json:"state"`
	LivePath       string `json:"live_path"`
	LiveGeneration uint64 `json:"live_generation"`

	CandidatePath       string `json:"candidate_path,omitempty"`
	CandidateGeneration uint64 `json:"candidate_generation,omitempty"`
	CanaryPercent       int    `json:"canary_percent,omitempty"`

	PriorPath       string `json:"prior_path,omitempty"`
	PriorGeneration uint64 `json:"prior_generation,omitempty"`

	// Window is the shadow/canary accounting window since the last
	// lifecycle transition.
	Window lifecycle.WindowStats `json:"window"`
	// HasBaseline reports whether a drift baseline is frozen; Drift is
	// the per-detector drift report against it.
	HasBaseline bool                 `json:"has_baseline"`
	Drift       []lifecycle.DriftRow `json:"drift,omitempty"`
	// FeedbackRecords counts feedback journalled by this process.
	FeedbackRecords int64 `json:"feedback_records"`
	// LastRollback is the reason of the most recent rollback ("" if
	// none this process).
	LastRollback string `json:"last_rollback,omitempty"`
}
