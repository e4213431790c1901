package sevenzip_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"edem/internal/propane"
	"edem/internal/targets/sevenzip"
)

func forkTarget() sevenzip.System {
	return sevenzip.System{FilesPerCase: 4, MeanFileSize: 256}
}

func forkSpec(module string, inject, sample propane.Location) propane.Spec {
	return propane.Spec{
		Dataset:        "7Z-FORK",
		Module:         module,
		InjectAt:       inject,
		SampleAt:       sample,
		InjectionTimes: []int{1, 3},
		TestCases:      2,
		Seed:           42,
		BitStride:      8,
	}
}

func sameRecords(t *testing.T, got, want []propane.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		same := g.TestCase == w.TestCase && g.Var == w.Var && g.Bit == w.Bit &&
			g.InjectionTime == w.InjectionTime && g.Injected == w.Injected &&
			g.Sampled == w.Sampled && g.Failure == w.Failure &&
			g.Crashed == w.Crashed && g.FlipErr == w.FlipErr &&
			len(g.State) == len(w.State)
		if same {
			for k := range g.State {
				if math.Float64bits(g.State[k]) != math.Float64bits(w.State[k]) {
					same = false
					break
				}
			}
		}
		if !same {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestForkEquivalence pins the fast path bit-identical to the slow
// path across both instrumented modules and all location triples.
func TestForkEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		name           string
		module         string
		inject, sample propane.Location
	}{
		{"fh-entry-entry", sevenzip.ModuleFHandle, propane.Entry, propane.Entry},
		{"fh-entry-exit", sevenzip.ModuleFHandle, propane.Entry, propane.Exit},
		{"ld-entry-exit", sevenzip.ModuleLDecode, propane.Entry, propane.Exit},
		{"ld-exit-exit", sevenzip.ModuleLDecode, propane.Exit, propane.Exit},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			spec := forkSpec(cfg.module, cfg.inject, cfg.sample)
			// Embedding hides Forkable, forcing the slow path: the oracle.
			slow, err := propane.Run(context.Background(), struct{ propane.Target }{forkTarget()}, spec)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := propane.Run(context.Background(), forkTarget(), spec)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, fast.Records, slow.Records)
		})
	}
}

// TestSnapshotResume: a fault-free run resumed from any snapshot
// position reproduces the golden outcome, and running a clone leaves
// the base snapshot untouched: every field of it, not only those its
// Digest covers, equal to a second snapshot of the same position.
func TestSnapshotResume(t *testing.T) {
	target := forkTarget()
	tc := target.TestCases(1, 99)[0]
	golden, err := propane.RunGolden(target, tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, module := range []string{sevenzip.ModuleFHandle, sevenzip.ModuleLDecode} {
		for _, at := range []propane.Location{propane.Entry, propane.Exit} {
			for activation := 1; activation <= 4; activation++ {
				st, ok, err := target.Snapshot(tc, module, at, activation)
				if err != nil || !ok {
					t.Fatalf("Snapshot(%s,%v,%d): ok=%v err=%v", module, at, activation, ok, err)
				}
				before, _, _ := target.Snapshot(tc, module, at, activation)
				if !reflect.DeepEqual(st, before) {
					t.Fatalf("two snapshots of (%s,%v,%d) differ", module, at, activation)
				}
				out, err := target.RunFrom(st.Clone(), propane.NopProbe{}, nil)
				if err != nil {
					t.Fatalf("RunFrom(%s,%v,%d): %v", module, at, activation, err)
				}
				if target.Failed(tc, golden, out) {
					t.Fatalf("resumed run from (%s,%v,%d) diverged from golden", module, at, activation)
				}
				if !reflect.DeepEqual(st, before) {
					t.Fatalf("running a clone mutated the base snapshot at (%s,%v,%d)", module, at, activation)
				}
			}
		}
	}
	// Activations beyond the file count are unreachable, not errors.
	if _, ok, err := target.Snapshot(tc, sevenzip.ModuleLDecode, propane.Entry, 5); ok || err != nil {
		t.Fatalf("activation beyond the run should be unreachable: ok=%v err=%v", ok, err)
	}
}
