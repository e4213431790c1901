package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edem/internal/lifecycle"
	"edem/internal/predicate"
	"edem/internal/serve"
	"edem/internal/telemetry"
)

// lifecycleBundle writes a one-detector bundle (detector D1 over one
// variable v, alarming on v > threshold) and returns its path.
func lifecycleBundle(t *testing.T, name string, threshold float64) string {
	t.Helper()
	b := &serve.Bundle{Version: serve.BundleVersion, Detectors: []serve.BundleEntry{{
		ID: "D1", Module: "M", Location: "Exit",
		Predicate: &predicate.Predicate{
			Name:    "D1",
			Vars:    []string{"v"},
			Clauses: []predicate.Clause{{{Var: "v", Index: 0, Op: predicate.GT, Threshold: threshold}}},
		},
	}}}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// lifecycleServer serves the bundle at path over httptest, with a
// lifecycle monitor when withMonitor is set, and returns its URL.
func lifecycleServer(t *testing.T, path string, withMonitor bool) string {
	t.Helper()
	b, err := serve.LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{Registry: telemetry.New()}
	if withMonitor {
		mon, err := lifecycle.NewMonitor(lifecycle.MonitorConfig{Dir: t.TempDir(), Registry: cfg.Registry})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mon.Close() })
		cfg.Monitor = mon
	}
	s, err := serve.NewServer(b, path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestCmdLifecycleVerbs drives the `edem lifecycle` verbs through run()
// against a served bundle with a lifecycle monitor: status, shadow,
// a 50% canary, rollback and feedback each print their report.
func TestCmdLifecycleVerbs(t *testing.T) {
	url := lifecycleServer(t, lifecycleBundle(t, "live.json", 100), true)
	candidate := lifecycleBundle(t, "candidate.json", -1e308)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"status"}, "state:     idle"},
		{[]string{"shadow", "-bundle", candidate}, "shadowing 1 detectors"},
		{[]string{"promote", "-percent", "50"}, "canary: 50% of traffic"},
		{[]string{"rollback", "-reason", "drill"}, "rolled back (drill)"},
		{[]string{"feedback", "-detector", "D1", "-outcome", "benign", "-sample", "0"}, "recorded benign/operator for D1"},
	} {
		args := append([]string{"lifecycle", c.args[0], "-server", url}, c.args[1:]...)
		out, err := capture(t, &os.Stdout, func() error { return run(args) })
		if err != nil {
			t.Fatalf("lifecycle %s: %v", c.args[0], err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("lifecycle %s printed %q, want %q", c.args[0], out, c.want)
		}
	}
}

// TestCmdLifecycleDisabled: against a server started without a
// lifecycle monitor, status reports the lifecycle disabled and shadow
// fails with the server's own message as a *serve.StatusError.
func TestCmdLifecycleDisabled(t *testing.T) {
	live := lifecycleBundle(t, "live.json", 100)
	url := lifecycleServer(t, live, false)
	out, err := capture(t, &os.Stdout, func() error {
		return run([]string{"lifecycle", "status", "-server", url})
	})
	if err != nil || !strings.Contains(out, "lifecycle: disabled") {
		t.Errorf("status = %q, %v; want the disabled report", out, err)
	}
	err = run([]string{"lifecycle", "shadow", "-server", url, "-bundle", live})
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError || !strings.Contains(se.Msg, "lifecycle disabled") {
		t.Fatalf("shadow without lifecycle = %v, want the server's lifecycle-disabled StatusError", err)
	}
	if !strings.Contains(err.Error(), "POST /admin/shadow") {
		t.Errorf("error %q does not name the request", err)
	}
}

// TestCmdServeRefusesBadCanary: -canary needs a -shadow candidate and a
// percentage in 1-99; serve refuses otherwise before it listens.
func TestCmdServeRefusesBadCanary(t *testing.T) {
	live := lifecycleBundle(t, "live.json", 100)
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"no shadow", []string{"-canary", "50"}, "-canary needs a -shadow"},
		{"full promote", []string{"-shadow", live, "-canary", "100"}, "outside 1-99"},
		{"negative", []string{"-shadow", live, "-canary", "-5"}, "outside 1-99"},
	} {
		args := append([]string{"serve", "-bundle", live, "-lifecycle", t.TempDir(), "-addr", "127.0.0.1:0"}, c.args...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: serve = %v, want %q", c.name, err, c.want)
		}
	}
}
