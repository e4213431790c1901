package main

import (
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"edem/internal/telemetry"
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

// usageVerbs returns the verbs of usageText's command list (a line
// indented by exactly two spaces starts a verb; deeper lines continue
// it) and of its -journal paragraph's parenthesised verb list.
func usageVerbs(t *testing.T) (commands, journal []string) {
	t.Helper()
	_, rest, ok := strings.Cut(usageText, "\ncommands:\n")
	if !ok {
		t.Fatal("usage has no commands: section")
	}
	list, _, _ := strings.Cut(rest, "\n\n")
	for _, line := range strings.Split(list, "\n") {
		if strings.HasPrefix(line, "  ") && line[2] != ' ' {
			commands = append(commands, strings.Fields(line)[0])
		}
	}
	_, after, ok := strings.Cut(usageText, "With -journal DIR, every command that builds fault-injection datasets\n(")
	if !ok {
		t.Fatal("usage has no -journal verb list")
	}
	inner, _, _ := strings.Cut(after, ")")
	for _, v := range strings.Split(inner, ",") {
		journal = append(journal, strings.TrimSpace(v))
	}
	return commands, journal
}

// TestUsageVerbsDispatch pins usage and dispatch to each other: every
// verb usage lists reaches its command (an unknown flag fails inside
// the command, never as an unknown subcommand), and the removed
// verbs are unknown subcommands.
func TestUsageVerbsDispatch(t *testing.T) {
	commands, journal := usageVerbs(t)
	if len(commands) < 10 || len(journal) < 5 {
		t.Fatalf("parsed %d commands and %d -journal verbs from usage; the parser lost the layout", len(commands), len(journal))
	}
	for _, v := range journal {
		if !slices.Contains(commands, v) {
			t.Errorf("-journal verb %q is not in the command list", v)
		}
	}
	for _, v := range commands {
		err := run([]string{v, "-no-such-flag"})
		if err != nil && strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("usage lists %q but run does not dispatch it: %v", v, err)
		}
	}
	for _, v := range []string{"rules", "rank"} {
		if slices.Contains(commands, v) || slices.Contains(journal, v) {
			t.Errorf("usage still lists the removed verb %q", v)
		}
		err := run([]string{v, "-dataset", "MG-B1"})
		if err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("run(%q) = %v, want an unknown subcommand error", v, err)
		}
	}
}

// TestDebugAddrTakenLeavesNoRegistry: a -debug-addr that cannot be
// listened on fails the command and leaves no default registry
// installed for later commands in the process.
func TestDebugAddrTakenLeavesNoRegistry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = run([]string{"tables", "-table", "1", "-debug-addr", ln.Addr().String()})
	if err == nil || !strings.Contains(err.Error(), "debug server") {
		t.Fatalf("run with a taken -debug-addr = %v, want a debug server error", err)
	}
	if reg := telemetry.Default(); reg != nil {
		telemetry.SetDefault(nil)
		t.Fatal("a failed -debug-addr listen left the default registry installed")
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

// TestCmdValidateRefusesMisreadAtom checks that `edem validate -pred`
// refuses a predicate whose atom names gainDB but indexes targetDB's
// position, instead of scoring targetDB.
func TestCmdValidateRefusesMisreadAtom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "misread.json")
	bad := `{"name":"MG-B1","vars":["targetDB","gainDB","scale","clipCount","trackIndex"],` +
		`"clauses":[[{"var":"gainDB","index":0,"op":"<=","threshold":81}]]}`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"validate", "-dataset", "MG-B1", "-pred", path, "-scale", "2", "-stride", "8"})
	if err == nil || !strings.Contains(err.Error(), `names "gainDB" but index 0 is "targetDB"`) {
		t.Fatalf("validate -pred = %v, want the misread atom refused", err)
	}
}

// TestCmdValidateRefusesForeignPredicate checks that `edem validate
// -pred` refuses a predicate learnt for another dataset, whose
// variables are not the campaign's, instead of scoring it.
func TestCmdValidateRefusesForeignPredicate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mg.json")
	mg := `{"name":"MG-B1","vars":["targetDB","gainDB","scale","clipCount","trackIndex"],` +
		`"clauses":[[{"var":"targetDB","index":0,"op":"<=","threshold":81}]]}`
	if err := os.WriteFile(path, []byte(mg), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"validate", "-dataset", "KV-A2", "-pred", path, "-scale", "2", "-stride", "8"})
	if err == nil || !strings.Contains(err.Error(), `reads "targetDB" at position 0`) {
		t.Fatalf("validate -pred = %v, want a variable mismatch", err)
	}
}
