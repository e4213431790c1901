package fabric

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"edem/internal/campaign"
	"edem/internal/propane"
	"edem/internal/serve"
	"edem/internal/telemetry"
)

// CoordinatorConfig tunes the coordinator. The zero value selects the
// defaults documented on each field.
type CoordinatorConfig struct {
	// LeaseTTL is how long a granted (or renewed) lease lives without a
	// heartbeat before its shard returns to pending (default 30s).
	LeaseTTL time.Duration
	// MaxLeases caps concurrent leases per shard — the work-stealing
	// fan-out limit (default 2: the original plus one thief).
	MaxLeases int
	// Linger is how long the coordinator keeps serving after the last
	// shard commits, so idle workers observe Complete on their next
	// poll instead of a connection error (default 1s).
	Linger time.Duration
	// DrainTimeout bounds the graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// Registry receives the fabric.* metrics; nil falls back to the
	// process default registry.
	Registry *telemetry.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// AuthToken, when non-empty, requires every /fabric/v1 request to
	// carry "Authorization: Bearer <token>". Tokens are compared in
	// constant time (over SHA-256 digests, so length leaks nothing).
	// /healthz stays open for load-balancer probes.
	AuthToken string
	// TLSCert/TLSKey are PEM file paths; when both are set Serve wraps
	// its listener in TLS, protecting the bearer token (and the shard
	// payloads) on cross-machine deployments.
	TLSCert string
	TLSKey  string
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.MaxLeases <= 0 {
		c.MaxLeases = 2
	}
	if c.Linger <= 0 {
		c.Linger = time.Second
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

// lease is one outstanding grant. Leases live only in coordinator
// memory: they are scheduling hints, not correctness state, so a
// coordinator restart forgets them and simply re-leases (completions
// for forgotten leases still merge first-wins).
type lease struct {
	id      string
	shard   int
	worker  string
	granted time.Time
	expiry  time.Time
	stolen  bool
}

// Coordinator owns one campaign's plan and journal and arbitrates
// shard leases over HTTP. Create with NewCoordinator, expose with
// Serve (or Handler for tests), stop by cancelling the context —
// or let it stop itself once the campaign completes.
type Coordinator struct {
	cfg    CoordinatorConfig
	ledger *campaign.Ledger

	mu     sync.Mutex
	leases map[string]*lease
	seq    int

	doneCh   chan struct{}
	doneOnce sync.Once

	mLeases      *telemetry.Counter
	mRenewals    *telemetry.Counter
	mExpiries    *telemetry.Counter
	mSteals      *telemetry.Counter
	mDupShards   *telemetry.Counter
	mDupCells    *telemetry.Counter
	mMerged      *telemetry.Counter
	mInvalid     *telemetry.Counter
	mReused      *telemetry.Counter
	gOutstanding *telemetry.Gauge
}

// NewCoordinator opens (or resumes) the journal for (target, spec)
// exactly as a local campaign.Run would — ccfg.Journal must be set;
// Resume and Incremental behave identically — and returns the
// coordinator ready to serve.
func NewCoordinator(target propane.Target, spec propane.Spec, ccfg campaign.Config, cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ledger, err := campaign.OpenLedger(target, spec, ccfg)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:    cfg,
		ledger: ledger,
		leases: make(map[string]*lease),
		doneCh: make(chan struct{}),
	}
	reg := cfg.Registry
	co.mLeases = reg.Counter("fabric.leases")
	co.mRenewals = reg.Counter("fabric.lease_renewals")
	co.mExpiries = reg.Counter("fabric.lease_expiries")
	co.mSteals = reg.Counter("fabric.steals")
	co.mDupShards = reg.Counter("fabric.duplicate_shards")
	co.mDupCells = reg.Counter("fabric.duplicate_cells")
	co.mMerged = reg.Counter("fabric.shards_merged")
	co.mInvalid = reg.Counter("fabric.shards_invalidated")
	co.mReused = reg.Counter("fabric.shards_reused")
	co.gOutstanding = reg.Gauge("fabric.leases_outstanding")
	co.mInvalid.Add(int64(ledger.Invalidated()))
	co.mReused.Add(int64(ledger.Reused()))
	if ledger.Complete() {
		co.doneOnce.Do(func() { close(co.doneCh) })
	}
	return co, nil
}

// Status snapshots progress.
func (co *Coordinator) Status() PlanStatus {
	co.mu.Lock()
	co.sweepLocked(time.Now())
	nLeases := len(co.leases)
	co.mu.Unlock()
	p := co.ledger.Plan()
	done := co.ledger.DoneCount()
	st := PlanStatus{
		Plan:     p.Hash,
		Dataset:  p.Spec.Dataset,
		Target:   p.Target,
		Jobs:     len(p.Jobs),
		Shards:   p.Shards,
		Done:     done,
		Leases:   nLeases,
		Complete: done == p.Shards,
	}
	if f := p.Spec.Fault.Normalized(); !f.IsTransient() {
		st.Fault = f.String()
	}
	return st
}

// sweepLocked drops expired leases. Callers hold co.mu.
func (co *Coordinator) sweepLocked(now time.Time) {
	for id, l := range co.leases {
		if now.After(l.expiry) {
			delete(co.leases, id)
			co.mExpiries.Inc()
			co.gOutstanding.Add(-1)
			co.cfg.Logf("fabric: lease %s (shard %d, worker %s) expired", id, l.shard, l.worker)
		}
	}
}

// grant implements the lease state machine: lowest pending shard
// first; when nothing is pending, steal the slowest outstanding shard
// (oldest grant, fewest leases, under the MaxLeases cap).
func (co *Coordinator) grant(worker string) LeaseResponse {
	if co.ledger.Complete() {
		return LeaseResponse{Shard: -1, Complete: true}
	}
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked(now)

	held := make(map[int]int)  // shard → active lease count
	mine := make(map[int]bool) // shards this worker already holds
	oldest := make(map[int]time.Time)
	for _, l := range co.leases {
		held[l.shard]++
		if l.worker == worker {
			mine[l.shard] = true
		}
		if t, ok := oldest[l.shard]; !ok || l.granted.Before(t) {
			oldest[l.shard] = l.granted
		}
	}

	pending := co.ledger.Pending()
	shard, stolen := -1, false
	for _, s := range pending {
		if held[s] == 0 {
			shard = s
			break
		}
	}
	if shard < 0 {
		// Work-stealing: race the slowest straggler. Deterministic
		// preference order: fewest leases, oldest grant, lowest shard.
		best := -1
		for _, s := range pending {
			if mine[s] || held[s] >= co.cfg.MaxLeases {
				continue
			}
			if best < 0 ||
				held[s] < held[best] ||
				(held[s] == held[best] && oldest[s].Before(oldest[best])) ||
				(held[s] == held[best] && oldest[s].Equal(oldest[best]) && s < best) {
				best = s
			}
		}
		if best < 0 {
			return LeaseResponse{Shard: -1}
		}
		shard, stolen = best, true
		co.mSteals.Inc()
	}

	co.seq++
	l := &lease{
		id:      fmt.Sprintf("l%d-s%d", co.seq, shard),
		shard:   shard,
		worker:  worker,
		granted: now,
		expiry:  now.Add(co.cfg.LeaseTTL),
		stolen:  stolen,
	}
	co.leases[l.id] = l
	co.mLeases.Inc()
	co.gOutstanding.Add(1)
	if stolen {
		co.cfg.Logf("fabric: worker %s steals shard %d (lease %s)", worker, shard, l.id)
	}
	return LeaseResponse{Shard: shard, Lease: l.id, TTLMS: co.cfg.LeaseTTL.Milliseconds(), Stolen: stolen}
}

// renew heartbeats one lease.
func (co *Coordinator) renew(id string) RenewResponse {
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked(now)
	l, ok := co.leases[id]
	if !ok {
		// Expired, superseded by a completed shard, or granted by a
		// previous coordinator incarnation. The worker decides whether
		// to keep going (first-wins makes either choice safe).
		return RenewResponse{OK: false}
	}
	l.expiry = now.Add(co.cfg.LeaseTTL)
	co.mRenewals.Inc()
	return RenewResponse{OK: true}
}

// complete merges one uploaded shard first-wins and dissolves every
// lease on it (whoever held them).
func (co *Coordinator) complete(worker string, line []byte) (CompleteResponse, error) {
	shard, accepted, err := co.ledger.Commit(line)
	if err != nil {
		return CompleteResponse{}, err
	}
	co.mu.Lock()
	for id, l := range co.leases {
		if l.shard == shard {
			delete(co.leases, id)
			co.gOutstanding.Add(-1)
		}
	}
	co.mu.Unlock()
	if accepted {
		co.mMerged.Inc()
	} else {
		co.mDupShards.Inc()
		lo, hi := co.ledger.Plan().ShardRange(shard)
		co.mDupCells.Add(int64(hi - lo))
		co.cfg.Logf("fabric: worker %s: shard %d is a duplicate (first completion won)", worker, shard)
	}
	complete := co.ledger.Complete()
	if complete {
		co.doneOnce.Do(func() { close(co.doneCh) })
	}
	return CompleteResponse{Shard: shard, Accepted: accepted, Duplicate: !accepted, Complete: complete}, nil
}

// Handler returns the coordinator's HTTP handler on a dedicated mux.
// With cfg.AuthToken set, every /fabric/v1 endpoint demands bearer
// auth; /healthz stays open.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fabric/v1/plan", co.handlePlan)
	mux.HandleFunc("/fabric/v1/lease", co.handleLease)
	mux.HandleFunc("/fabric/v1/renew", co.handleRenew)
	mux.HandleFunc("/fabric/v1/complete", co.handleComplete)
	mux.HandleFunc("/healthz", co.handlePlan)
	if co.cfg.AuthToken == "" {
		return mux
	}
	return requireBearer(co.cfg.AuthToken, mux)
}

// requireBearer rejects /fabric/v1 requests whose Authorization header
// does not carry the expected bearer token. Both sides are hashed
// before comparing so the comparison is constant-time and independent
// of token length.
func requireBearer(token string, next http.Handler) http.Handler {
	want := sha256.Sum256([]byte(token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/fabric/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		auth := r.Header.Get("Authorization")
		const prefix = "Bearer "
		ok := false
		if strings.HasPrefix(auth, prefix) {
			got := sha256.Sum256([]byte(auth[len(prefix):]))
			ok = subtle.ConstantTimeCompare(got[:], want[:]) == 1
		}
		if !ok {
			writeJSON(w, http.StatusUnauthorized, ErrorResponse{Error: "unauthorized"})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Serve runs the coordinator on ln until ctx is cancelled or the
// campaign completes (plus the linger window), then drains, closes the
// ledger and — when complete — seals the journal into canonical form.
// When cfg.TLSCert/TLSKey are set the listener is wrapped in TLS.
func (co *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	if co.cfg.TLSCert != "" || co.cfg.TLSKey != "" {
		cert, err := tls.LoadX509KeyPair(co.cfg.TLSCert, co.cfg.TLSKey)
		if err != nil {
			return fmt.Errorf("fabric: load TLS keypair: %w", err)
		}
		ln = tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}})
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-co.doneCh:
			co.cfg.Logf("fabric: campaign complete, lingering %v for worker goodbyes", co.cfg.Linger)
			t := time.NewTimer(co.cfg.Linger)
			defer t.Stop()
			select {
			case <-t.C:
			case <-sctx.Done():
			}
			cancel()
		case <-sctx.Done():
		}
	}()
	err := serve.RunHTTP(sctx, ln, co.Handler(), serve.HTTPConfig{
		DrainTimeout: co.cfg.DrainTimeout,
		Logf:         co.cfg.Logf,
	})
	if co.ledger.Complete() {
		if serr := co.ledger.Seal(); serr != nil && err == nil {
			err = serr
		}
	} else if cerr := co.ledger.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// ListenAndServe listens on addr and calls Serve, reporting the bound
// address through onListen (useful with ":0") before serving.
func (co *Coordinator) ListenAndServe(ctx context.Context, addr string, onListen func(addr net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	return co.Serve(ctx, ln)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (co *Coordinator) handlePlan(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, co.Status())
}

func (co *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	if req.Worker == "" {
		req.Worker = r.RemoteAddr
	}
	writeJSON(w, http.StatusOK, co.grant(req.Worker))
}

func (co *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	var req RenewRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	resp := co.renew(req.Lease)
	if !resp.OK {
		// Hint Done when the shard is already committed so the worker
		// can abandon it. Lease IDs encode their shard (l<seq>-s<shard>);
		// parsing it back avoids a second lease table for dead IDs.
		if shard, ok := shardOfLease(req.Lease); ok {
			for _, s := range co.ledger.Pending() {
				if s == shard {
					writeJSON(w, http.StatusOK, resp)
					return
				}
			}
			resp.Done = true
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// shardOfLease recovers the shard index embedded in a lease ID.
func shardOfLease(id string) (int, bool) {
	var seq, shard int
	if _, err := fmt.Sscanf(id, "l%d-s%d", &seq, &shard); err != nil {
		return 0, false
	}
	return shard, true
}

func (co *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFrameLineLen+1024))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	worker, _, line, err := DecodeCompletion(data)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	resp, err := co.complete(worker, line)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
