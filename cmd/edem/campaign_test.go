package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"edem/internal/core"
	"edem/internal/dataset"
	"edem/internal/propane"
)

// TestCmdCampaignFlagValidation pins the target-selection errors that
// need no campaign execution.
func TestCmdCampaignFlagValidation(t *testing.T) {
	if err := run([]string{"campaign"}); err == nil {
		t.Error("campaign without -dataset/-all should fail")
	}
	if err := run([]string{"campaign", "-dataset", "MG-A1", "-all"}); err == nil {
		t.Error("campaign with both -dataset and -all should fail")
	}
	if err := run([]string{"campaign", "-dataset", "NOPE-Z9", "-journal", t.TempDir()}); err == nil {
		t.Error("campaign with bad dataset ID should fail")
	}
}

// TestCmdCampaignStopAndResume drives the whole story through the CLI:
// start a journaled campaign, stop it after two checkpoints (a
// controlled kill), resume it to completion, then regenerate the ARFF
// dataset twice — once from the resumed journal, once directly — and
// require byte identity.
func TestCmdCampaignStopAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	journal := filepath.Join(t.TempDir(), "journal")
	scale := []string{"-dataset", "MG-A1", "-scale", "2", "-stride", "16"}

	args := append([]string{"campaign", "-journal", journal, "-shards", "6", "-stop-after", "2"}, scale...)
	if err := run(args); err != nil {
		t.Fatalf("interrupted campaign should exit cleanly: %v", err)
	}
	if _, err := os.Stat(filepath.Join(journal, "MG-A1", "manifest.json")); err != nil {
		t.Fatalf("journal manifest missing: %v", err)
	}

	// Without -resume the half-finished journal must be refused.
	args = append([]string{"campaign", "-journal", journal, "-shards", "6"}, scale...)
	if err := run(args); err == nil {
		t.Fatal("existing journal without -resume should fail")
	}

	args = append([]string{"campaign", "-journal", journal, "-shards", "6", "-resume"}, scale...)
	if err := run(args); err != nil {
		t.Fatalf("resume: %v", err)
	}

	dir := t.TempDir()
	resumed := filepath.Join(dir, "resumed.arff")
	direct := filepath.Join(dir, "direct.arff")
	args = append([]string{"inject", "-journal", journal, "-arff", resumed}, scale...)
	if err := run(args); err != nil {
		t.Fatalf("inject from journal: %v", err)
	}
	args = append([]string{"inject", "-arff", direct}, scale...)
	if err := run(args); err != nil {
		t.Fatalf("direct inject: %v", err)
	}
	a, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("ARFF from resumed journal differs from direct run")
	}
}

// TestCmdCampaignFork: the ARFF the CLI writes (forked, the default)
// is byte-identical to one converted from the same campaign run on the
// slow path — the target wrapped so that it no longer implements
// Forkable.
func TestCmdCampaignFork(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	scale := []string{"-dataset", "MG-A1", "-scale", "2", "-stride", "16"}
	forked := filepath.Join(t.TempDir(), "forked.arff")
	if err := run(append([]string{"inject", "-arff", forked}, scale...)); err != nil {
		t.Fatalf("inject: %v", err)
	}

	opts := core.DefaultOptions()
	opts.TestCases, opts.BitStride = 2, 16
	target, spec, err := core.SpecFor("MG-A1", opts)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := propane.Run(context.Background(), struct{ propane.Target }{target}, spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Preprocess(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	var slow bytes.Buffer
	if err := dataset.WriteARFF(&slow, d); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(forked)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, slow.Bytes()) {
		t.Fatal("forked ARFF differs from slow-path ARFF")
	}
}
