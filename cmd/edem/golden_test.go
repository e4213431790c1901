package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edem/internal/parallel"
	"edem/internal/telemetry"
)

// -update rewrites the golden files with the current output:
//
//	go test ./cmd/edem -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything fn printed. The table commands print to stdout via
// the process-global fmt.Print*, so golden tests capture at that level.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := fn()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatalf("run: %v", ferr)
	}
	return out
}

// goldenArgs pins the experiment scale of every golden run: small
// campaigns, fixed seed. Output is deterministic for any -workers value
// (the scheduler guarantees worker-count invariance), so the goldens
// are stable across machines.
func goldenArgs(table string) []string {
	return []string{"tables", "-table", table, "-scale", "2", "-stride", "16", "-seed", "1"}
}

func testGoldenTable(t *testing.T, table string) {
	if testing.Short() {
		t.Skip("full table generation; skipped in -short mode")
	}
	defer parallel.SetBudget(0)
	out := captureStdout(t, func() error { return run(goldenArgs(table)) })
	checkGolden(t, "table"+table+".txt", out)
}

// checkGolden compares got with testdata/golden/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from golden file %s\n%s", golden, diffLines(string(want), got))
	}
}

// diffLines renders a minimal line diff of got against want.
func diffLines(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var sb strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&sb, "line %d:\n  want: %q\n  got:  %q\n", i+1, w, g)
		}
	}
	return sb.String()
}

func TestGoldenTable2(t *testing.T) { testGoldenTable(t, "2") }
func TestGoldenTable3(t *testing.T) { testGoldenTable(t, "3") }
func TestGoldenTable4(t *testing.T) { testGoldenTable(t, "4") }

// TestGoldenRun pins `edem run` end to end (Steps 1-4 and predicate
// extraction): its stdout, whose baseline and refined lines carry the
// cross-validation results, and the predicate -save writes. MG-B1 also
// runs under -short, so every CI run checks one dataset. The other
// Table II datasets pin the deployed predicate alone; FG-A1 and FG-A3
// hold attributes that mix -0 and +0, so their thresholds show any
// change in how ties are ordered.
func TestGoldenRun(t *testing.T) {
	defer parallel.SetBudget(0)
	full := []string{"MG-B1", "KV-A2", "FG-A2", "7Z-B2"}
	predOnly := []string{
		"7Z-A1", "7Z-A2", "7Z-A3", "7Z-B1", "7Z-B3",
		"FG-A1", "FG-A3", "FG-B1", "FG-B2", "FG-B3",
		"MG-A1", "MG-A2", "MG-A3", "MG-B2", "MG-B3",
	}
	for i, id := range append(full, predOnly...) {
		stdout := i < len(full)
		t.Run(id, func(t *testing.T) {
			if testing.Short() && id != "MG-B1" {
				t.Skip("campaign and refinement grid; skipped in -short mode")
			}
			save := filepath.Join(t.TempDir(), "pred.json")
			out := captureStdout(t, func() error {
				return run([]string{"run", "-dataset", id, "-scale", "2", "-stride", "4", "-seed", "1", "-save", save})
			})
			pred, err := os.ReadFile(save)
			if err != nil {
				t.Fatal(err)
			}
			if stdout {
				checkGolden(t, "run-"+id+".txt", strings.ReplaceAll(out, save, "pred.json"))
			}
			checkGolden(t, "run-"+id+".pred.json", string(pred))
		})
	}
}

// TestMetricsSnapshotCoversWallClock is the acceptance check for the
// telemetry layer: a serial `edem tables -table 3 -metrics-out` run
// must produce a snapshot whose top-level phase durations account for
// the process wall-clock within 5%. -workers 1 matters — phase NS is
// busy time, which exceeds wall time when phases overlap on workers.
func TestMetricsSnapshotCoversWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("full table generation; skipped in -short mode")
	}
	defer parallel.SetBudget(0)
	path := filepath.Join(t.TempDir(), "metrics.json")
	args := append(goldenArgs("3"), "-workers", "1", "-metrics-out", path)
	captureStdout(t, func() error { return run(args) })

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics snapshot not written: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot not valid JSON: %v", err)
	}

	if snap.WallNS <= 0 {
		t.Fatalf("wall_ns = %d, want > 0", snap.WallNS)
	}
	root := snap.RootPhaseNS()
	ratio := float64(root) / float64(snap.WallNS)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("root phases cover %.1f%% of wall clock, want within 5%%: root=%d wall=%d",
			100*ratio, root, snap.WallNS)
	}

	// The pipeline counters must reflect a full 18-dataset Table III
	// run: one cross-validation cell per dataset and fold.
	if got := snap.Counters["refine.cells_scored"]; got != 18*10 {
		t.Errorf("refine.cells_scored = %d, want %d", got, 18*10)
	}
	for _, name := range []string{
		"campaign.runs_injected", "campaign.states_sampled",
		"campaign.failures", "preprocess.instances",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	for _, phase := range []string{"campaign", "preprocess", "baseline", "baseline/cell"} {
		if snap.Phases[phase].Count == 0 {
			t.Errorf("phase %s missing from snapshot", phase)
		}
	}
}
