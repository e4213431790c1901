package main

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"edem/internal/serve"
)

// TestCmdExportThenServe drives the deployment story end to end at the
// CLI boundary: `edem export` learns a predicate and writes a bundle,
// the bundle loads back, and the serving stack evaluates a batch
// through the retrying client.
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
