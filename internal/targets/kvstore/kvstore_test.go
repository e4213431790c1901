package kvstore_test

import (
	"context"
	"math"
	"testing"

	"edem/internal/bitflip"
	"edem/internal/core"
	"edem/internal/propane"
	"edem/internal/targets/kvstore"
)

func kvSpec(tcs int) propane.Spec {
	return propane.Spec{
		Dataset:        "KV-A2",
		Module:         kvstore.ModuleReplicate,
		InjectAt:       propane.Entry,
		SampleAt:       propane.Exit,
		InjectionTimes: []int{2, 8},
		TestCases:      tcs,
		Seed:           5,
		BitStride:      16,
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

// TestGoldenInvariants: a fault-free run upholds the replication
// invariant — no divergent replicas, and the outcome equals itself
// under the failure spec.
func TestGoldenInvariants(t *testing.T) {
	s := kvstore.System{}
	for _, tc := range s.TestCases(4, 99) {
		out, err := s.Run(tc, propane.NopProbe{})
		if err != nil {
			t.Fatal(err)
		}
		oc, ok := out.(kvstore.Outcome)
		if !ok {
			t.Fatalf("outcome type %T", out)
		}
		if oc.Divergences != 0 {
			t.Errorf("tc %d: golden run diverged %d times", tc.ID, oc.Divergences)
		}
		if oc.Digest == 0 {
			t.Errorf("tc %d: degenerate digest", tc.ID)
		}
		if s.Failed(tc, out, out) {
			t.Errorf("tc %d: golden outcome fails against itself", tc.ID)
		}
	}
	// Distinct workloads produce distinct outcomes.
	tcs := s.TestCases(2, 7)
	a, _ := s.Run(tcs[0], propane.NopProbe{})
	b, _ := s.Run(tcs[1], propane.NopProbe{})
	if a == b {
		t.Error("two different workloads yielded identical outcomes")
	}
}

// TestRunDeterminism: repeated runs of the same test case are
// bit-identical, the precondition for golden-compare failure labels.
func TestRunDeterminism(t *testing.T) {
	s := kvstore.System{}
	tc := s.TestCases(1, 42)[0]
	a, err := s.Run(tc, propane.NopProbe{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(tc, propane.NopProbe{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("outcomes differ: %+v vs %+v", a, b)
	}
}

// TestCampaignProducesFailures: an injection campaign yields a
// non-degenerate label mix — some failures (replication-invariant
// violations) and some benign runs — for both modules.
func TestCampaignProducesFailures(t *testing.T) {
	for _, module := range []string{kvstore.ModuleReplicate, kvstore.ModuleQuorum} {
		spec := kvSpec(2)
		spec.Module = module
		camp, err := propane.Run(context.Background(), kvstore.System{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(camp.Records) == 0 {
			t.Fatalf("%s: no records", module)
		}
		fails := camp.Failures()
		if fails == 0 || fails == len(camp.Records) {
			t.Errorf("%s: degenerate failure labels: %d/%d", module, fails, len(camp.Records))
		}
		if camp.Usable() == 0 {
			t.Errorf("%s: no usable records", module)
		}
	}
}

// TestForkEquivalence: the golden-state forking fast path is
// bit-identical to the slow path for every (inject, sample) pair and
// both modules.
func TestForkEquivalence(t *testing.T) {
	locs := []struct {
		name           string
		inject, sample propane.Location
	}{
		{"entry-entry", propane.Entry, propane.Entry},
		{"entry-exit", propane.Entry, propane.Exit},
		{"exit-exit", propane.Exit, propane.Exit},
	}
	for _, module := range []string{kvstore.ModuleReplicate, kvstore.ModuleQuorum} {
		for _, at := range locs {
			t.Run(module+"/"+at.name, func(t *testing.T) {
				spec := kvSpec(1)
				spec.Module = module
				spec.InjectAt, spec.SampleAt = at.inject, at.sample
				// Embedding hides Forkable, forcing the slow path: the oracle.
				slow, err := propane.Run(context.Background(), struct{ propane.Target }{kvstore.System{}}, spec)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := propane.Run(context.Background(), kvstore.System{}, spec)
				if err != nil {
					t.Fatal(err)
				}
				sameRecords(t, fast.Records, slow.Records)
			})
		}
	}
}

// TestBurstFork: the burst model also rides the fast path on this
// target, bit-identically.
func TestBurstFork(t *testing.T) {
	spec := kvSpec(1)
	spec.Fault = bitflip.Fault{Model: bitflip.Burst, Width: 3}
	slow, err := propane.Run(context.Background(), struct{ propane.Target }{kvstore.System{}}, spec)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := propane.Run(context.Background(), kvstore.System{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, fast.Records, slow.Records)
}

// TestCoreDatasetIDs: KV-* IDs resolve through the standard dataset
// grammar without joining the paper's published Table II list.
func TestCoreDatasetIDs(t *testing.T) {
	opts := core.DefaultOptions()
	for _, id := range []string{"KV-A1", "KV-A2", "KV-A3", "KV-B1", "KV-B2", "KV-B3"} {
		target, spec, err := core.SpecFor(id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if target.Name() != "KVStore" || spec.Dataset != id {
			t.Errorf("%s resolved to %s/%s", id, target.Name(), spec.Dataset)
		}
	}
	if _, _, err := core.SpecFor("KV-C1", opts); err == nil {
		t.Error("KV-C1 resolved, want unknown module error")
	}
	ids := core.AllDatasetIDs()
	if len(ids) != 18 {
		t.Fatalf("AllDatasetIDs grew to %d; Table II must stay at the 18 published rows", len(ids))
	}
	for _, id := range ids {
		if id[:2] == "KV" {
			t.Errorf("KV dataset %s leaked into Table II", id)
		}
	}
}

// TestPipelineSmoke runs Steps 1-2 end to end on a KV dataset at tiny
// scale: campaign through the journaled engine, conversion to a mining
// dataset with a usable class mix.
func TestPipelineSmoke(t *testing.T) {
	opts := core.DefaultOptions()
	opts.TestCases = 2
	opts.BitStride = 16
	d, camp, err := core.BuildDataset(context.Background(), "KV-A2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 || len(d.Attrs) == 0 {
		t.Fatal("empty dataset")
	}
	if camp.Failures() == 0 {
		t.Fatal("no failures to mine")
	}
	classes := map[int]int{}
	for _, inst := range d.Instances {
		classes[inst.Class]++
	}
	if len(classes) < 2 {
		t.Fatalf("single-class dataset: %v", classes)
	}
}
