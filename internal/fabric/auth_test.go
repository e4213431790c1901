package fabric

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"edem/internal/campaign"
	"edem/internal/serve"
	"edem/internal/telemetry"
)

// TestBearerAuthRejectsUnauthenticated: with an auth token configured,
// every /fabric/v1 endpoint and /metrics reject missing and wrong
// tokens with 401 (no lease granted, no line merged), accept the right
// one, and /healthz stays open for probes.
func TestBearerAuthRejectsUnauthenticated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	cfg := coordConfig(time.Minute)
	cfg.AuthToken = "hunter2"
	co, err := NewCoordinator(testTarget{}, testSpec(1), campaign.Config{Journal: dir, Shards: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	post := func(path, token string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res
	}

	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/fabric/v1/lease", nil},
		{"/fabric/v1/complete", []byte("{}\n")},
		{"/fabric/v1/renew", []byte(`{"lease":"x"}`)},
	} {
		if res := post(c.path, "", c.body); res.StatusCode != http.StatusUnauthorized {
			t.Errorf("POST %s without token: %d, want 401", c.path, res.StatusCode)
		}
		if res := post(c.path, "wrong", c.body); res.StatusCode != http.StatusUnauthorized {
			t.Errorf("POST %s with wrong token: %d, want 401", c.path, res.StatusCode)
		}
	}
	for _, path := range []string{"/fabric/v1/plan", "/metrics"} {
		if res, err := http.Get(srv.URL + path); err != nil || res.StatusCode != http.StatusUnauthorized {
			t.Errorf("GET %s without token: %v %v, want 401", path, res.StatusCode, err)
		}
	}

	// Nothing leaked through: no lease outstanding, no shard committed.
	if st := co.Status(); st.Leases != 0 || st.Done != 0 {
		t.Errorf("unauthenticated calls mutated state: %+v", st)
	}

	// The right token works end to end.
	if res := post("/fabric/v1/lease", "hunter2", nil); res.StatusCode != http.StatusOK {
		t.Errorf("authenticated lease: %d, want 200", res.StatusCode)
	}
	if st := co.Status(); st.Leases != 1 {
		t.Errorf("authenticated lease not granted: %+v", st)
	}
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer hunter2")
	var snap telemetry.Snapshot
	if _, err := serve.Do(nil, req, &snap); err != nil {
		t.Fatalf("authenticated /metrics: %v", err)
	}
	if snap.Counters["fabric.leases"] != 1 {
		t.Errorf("/metrics fabric.leases = %d, want 1", snap.Counters["fabric.leases"])
	}
	// Health stays open for load-balancer probes.
	if res, err := http.Get(srv.URL + "/healthz"); err != nil || res.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz: %v %v, want 200 without auth", res.StatusCode, err)
	}
}

// TestAuthenticatedWorkerCompletes: a worker configured with the token
// drives a campaign to completion against an auth-requiring
// coordinator; one without the token refuses to start.
func TestAuthenticatedWorkerCompletes(t *testing.T) {
	spec := testSpec(1)
	dir := filepath.Join(t.TempDir(), "journal")
	cfg := coordConfig(2 * time.Second)
	cfg.AuthToken = "fabric-secret"
	co, err := NewCoordinator(testTarget{}, spec, campaign.Config{Journal: dir, Shards: 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.Serve(ctx, ln) }()

	wcfg := WorkerConfig{
		Coordinator: "http://" + ln.Addr().String(),
		Name:        "tokenless",
		Poll:        10 * time.Millisecond,
		Registry:    telemetry.New(),
	}
	if _, err := NewWorker(ctx, testTarget{}, spec, campaign.Config{}, wcfg); err == nil {
		t.Fatal("worker without token started against an auth-requiring coordinator")
	}

	wcfg.Name = "authorized"
	wcfg.AuthToken = "fabric-secret"
	w, err := NewWorker(ctx, testTarget{}, spec, campaign.Config{}, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("authorized worker: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if st := co.Status(); !st.Complete {
		t.Errorf("campaign not complete: %+v", st)
	}
}
