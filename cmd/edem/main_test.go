package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsUnknownCommands(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args should fail")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand should fail")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

func TestCmdList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatalf("list: %v", err)
	}
}

func TestCmdTablesUnknownTable(t *testing.T) {
	if err := run([]string{"tables", "-table", "9"}); err == nil {
		t.Fatal("table 9 should fail")
	}
}

func TestCmdTable1(t *testing.T) {
	if err := run([]string{"tables", "-table", "1"}); err != nil {
		t.Fatalf("table 1: %v", err)
	}
}

func TestCmdTreeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	if err := run([]string{"tree", "-dataset", "MG-B1", "-scale", "2", "-stride", "16"}); err != nil {
		t.Fatalf("tree: %v", err)
	}
}

func TestCmdInjectWritesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "campaign.log")
	arffPath := filepath.Join(dir, "campaign.arff")
	err := run([]string{
		"inject", "-dataset", "MG-A1", "-scale", "2", "-stride", "16",
		"-log", logPath, "-arff", arffPath,
	})
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(logData), "#PROPANE v1") {
		t.Error("log missing PROPANE header")
	}
	arffData, err := os.ReadFile(arffPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arffData), "@relation") || !strings.Contains(string(arffData), "@data") {
		t.Error("ARFF missing sections")
	}
}

func TestCmdRunBadDataset(t *testing.T) {
	if err := run([]string{"run", "-dataset", "NOPE-X9"}); err == nil {
		t.Fatal("bad dataset should fail")
	}
}

// TestCmdValidateRefusesUncompilable checks that `edem validate -pred`
// refuses a predicate that does not compile (an atom with no "op"), as
// `edem serve` does, instead of scoring it.
func TestCmdValidateRefusesUncompilable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	bad := `{"name":"MG-B1","vars":["x"],"clauses":[[{"var":"x","index":0,"threshold":1}]]}`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"validate", "-dataset", "MG-B1", "-pred", path, "-scale", "2", "-stride", "8"})
	if err == nil || !strings.Contains(err.Error(), "unsupported operator") {
		t.Fatalf("validate -pred = %v, want a compile error", err)
	}
}
