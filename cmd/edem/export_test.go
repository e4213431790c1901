package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edem/internal/serve"
)

// TestCmdExportThenServe drives the deployment story end to end at the
// CLI boundary: `edem export` learns a predicate and writes a bundle,
// the bundle loads back, and the serving stack evaluates a batch
// through serve.Client.
func TestCmdExportThenServe(t *testing.T) {
	if testing.Short() {
		t.Skip("methodology run; skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "bundle.json")
	args := []string{"export", "-dataset", "MG-A1", "-out", out, "-scale", "2", "-stride", "16"}
	if err := run(args); err != nil {
		t.Fatalf("export: %v", err)
	}

	b, err := serve.LoadBundle(out)
	if err != nil {
		t.Fatalf("exported bundle does not load: %v", err)
	}
	if len(b.Detectors) != 1 || b.Detectors[0].ID != "MG-A1" {
		t.Fatalf("bundle = %+v", b.Detectors)
	}
	e := b.Detectors[0]
	if e.Module == "" || e.Predicate == nil {
		t.Fatalf("entry incomplete: %+v", e)
	}
	if _, err := e.ParseLocation(); err != nil {
		t.Fatal(err)
	}

	s, err := serve.NewServer(b, out, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	c := &serve.Client{Base: hs.URL}
	arity := len(e.Predicate.Vars)
	samples := make([]serve.Sample, 4)
	for i := range samples {
		samples[i] = make(serve.Sample, arity)
	}
	resp, err := c.Evaluate(context.Background(), "MG-A1", samples)
	if err != nil {
		t.Fatalf("evaluate against exported bundle: %v", err)
	}
	if resp.Evaluated != 4 || len(resp.Verdicts) != 4 {
		t.Fatalf("resp = %+v", resp)
	}
}

// TestCmdExportRefusesIDsBeforeWork checks that `edem export` resolves
// every dataset id and refuses duplicates before the first campaign:
// the refusal prints no per-dataset progress line and writes no bundle.
func TestCmdExportRefusesIDsBeforeWork(t *testing.T) {
	for _, tc := range []struct{ ids, want string }{
		{"MG-B1,MG-B1", "MG-B1 listed twice"},
		{"MG-B1,XX-A1", "unknown system prefix"},
	} {
		out := filepath.Join(t.TempDir(), "bundle.json")
		stderr, err := capture(t, &os.Stderr, func() error {
			return run([]string{"export", "-dataset", tc.ids, "-out", out, "-scale", "2", "-stride", "16"})
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("export -dataset %s = %v, want %q", tc.ids, err, tc.want)
		}
		if stderr != "" {
			t.Errorf("export -dataset %s printed before refusing:\n%s", tc.ids, stderr)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("export -dataset %s left a bundle (stat err %v)", tc.ids, err)
		}
	}
}
