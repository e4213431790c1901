package campaign_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edem/internal/bitflip"
	"edem/internal/campaign"
	"edem/internal/core"
	"edem/internal/dataset"
	"edem/internal/propane"
)

// TestPlanHashCompatPins pins the plan hashes of real Table II datasets
// to their pre-fault-model values. The fault-model axis versioned the
// plan format to v3, but the default transient model must keep emitting
// the legacy v2 canonical text byte for byte — these constants were
// computed before the axis existed, so any drift here means existing
// journals stop resuming.
func TestPlanHashCompatPins(t *testing.T) {
	pins := map[string]string{
		"MG-A1": "e5e0314b9b438ca938ec4bef576e1dd8854abf1f8fa423ea3b8524057f50200a",
		"7Z-B2": "70e5c08761c94d1dd0b43b6be122813f04a121e5566e4f91b4e653994767d056",
		"FG-A2": "622af50bd2920862fb4f0c61b005b1bdecdf569b5395d265c7aa961b1c40ad0f",
	}
	opts := core.DefaultOptions()
	for id, want := range pins {
		target, spec, err := core.SpecFor(id, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := campaign.NewPlan(target, spec, 6)
		if err != nil {
			t.Fatal(err)
		}
		if p.Hash != want {
			t.Errorf("%s plan hash drifted:\n got %s\nwant %s", id, p.Hash, want)
		}
	}

	// Section sub-hashes feed incremental invalidation; pin two so a
	// transient section change can't hide behind an unchanged plan hash
	// algorithm.
	target, spec, err := core.SpecFor("MG-A1", opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := campaign.NewPlan(target, spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	sectionPins := map[int]string{
		0: "1811aae6226bce753d07ac6f6340acf667f93dbea73dc4c962ea2dceab6eadb9",
		1: "d1a24702fbc1434e093c827e127b562cb9bc7c05b4a6a2b6a8a64104db3a4abc",
	}
	for tc, want := range sectionPins {
		if got := p.Sections[tc].Hash; got != want {
			t.Errorf("MG-A1 section %d sub-hash drifted:\n got %s\nwant %s", tc, got, want)
		}
	}
}

// TestTransientARFFPin pins the bytes of a full transient pipeline
// output (campaign → ARFF) for MG-A1 at CI scale. Byte-identical ARFF
// is the acceptance criterion for "default campaigns are unchanged".
func TestTransientARFFPin(t *testing.T) {
	const want = "8b5be281200724449428487563870c8a6b264c57a287d42a7999c602eada35d5"
	opts := core.DefaultOptions()
	opts.TestCases = 2
	opts.BitStride = 16
	d, _, err := core.BuildDataset(context.Background(), "MG-A1", opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := dataset.WriteARFF(&b, d); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("MG-A1 transient ARFF drifted:\n got sha256 %s\nwant sha256 %s", got, want)
	}
}

// TestFaultChangesPlanHash: every non-transient configuration hashes
// differently from transient and from each other — the model is a real
// campaign axis, not a silent execution knob.
func TestFaultChangesPlanHash(t *testing.T) {
	spec := fakeSpec(2)
	hashes := map[string]string{}
	for _, f := range []bitflip.Fault{
		{},
		{Model: bitflip.Burst, Width: 2},
		{Model: bitflip.Burst, Width: 3},
		{Model: bitflip.StuckAt},
		{Model: bitflip.Intermittent, Persist: 2},
		{Model: bitflip.Intermittent, Persist: 3},
	} {
		s := spec
		s.Fault = f
		p, err := campaign.NewPlan(newFakeTarget(), s, 4)
		if err != nil {
			t.Fatal(err)
		}
		for other, h := range hashes {
			if h == p.Hash {
				t.Errorf("fault %q and %q share plan hash %s", f, other, h)
			}
		}
		hashes[f.String()] = p.Hash
	}
	// Spelling the defaults explicitly is not a new configuration.
	s := spec
	s.Fault = bitflip.Fault{Model: bitflip.Transient, Width: 1, Persist: 1}
	p, err := campaign.NewPlan(newFakeTarget(), s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hash != hashes["transient"] {
		t.Error("explicit transient defaults hash differently from the zero value")
	}
}

// TestManifestFaultCompat: transient journals keep the legacy v2
// manifest with no fault fields (so journals written before the axis
// resume unchanged), non-transient journals are v3 with the fault
// recorded, and resuming under a different fault model is a plan
// mismatch, not silent reuse.
func TestManifestFaultCompat(t *testing.T) {
	spec := fakeSpec(2)
	dir := filepath.Join(t.TempDir(), "transient")
	if _, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: dir, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Version int            `json:"version"`
		Spec    map[string]any `json:"spec"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != 2 {
		t.Errorf("transient manifest version %d, want legacy 2", m.Version)
	}
	for _, k := range []string{"fault_model", "fault_width", "fault_persist"} {
		if _, ok := m.Spec[k]; ok {
			t.Errorf("transient manifest leaked %q", k)
		}
	}

	burst := spec
	burst.Fault = bitflip.Fault{Model: bitflip.Burst, Width: 2}
	bdir := filepath.Join(t.TempDir(), "burst")
	if _, err := campaign.Run(context.Background(), newFakeTarget(), burst,
		campaign.Config{Journal: bdir, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(filepath.Join(bdir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 {
		t.Errorf("burst manifest version %d, want 3", m.Version)
	}
	if m.Spec["fault_model"] != "burst" || m.Spec["fault_width"] != float64(2) {
		t.Errorf("burst manifest fault fields: %v", m.Spec)
	}

	// A journal written under one model refuses a resume under another.
	other := spec
	other.Fault = bitflip.Fault{Model: bitflip.StuckAt}
	if _, err := campaign.Run(context.Background(), newFakeTarget(), other,
		campaign.Config{Journal: bdir, Resume: true}); !errors.Is(err, campaign.ErrPlanMismatch) {
		t.Errorf("resume under a different fault model: %v, want ErrPlanMismatch", err)
	}
	// And the matching model replays it without running anything.
	res, err := campaign.Run(context.Background(), newFakeTarget(), burst,
		campaign.Config{Journal: bdir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsRun != 0 || res.ShardsRestored != 3 {
		t.Errorf("burst replay: run=%d restored=%d, want 0/3", res.ShardsRun, res.ShardsRestored)
	}
}

// tickTarget is a multi-activation target for the per-model resume
// tests: persistent models only differ from transient when the
// injection location keeps activating after the injection.
type tickTarget struct{}

func (tickTarget) Name() string { return "Tick" }

func (tickTarget) Modules() []propane.ModuleInfo {
	return []propane.ModuleInfo{{
		Name: "M",
		Vars: []propane.VarDecl{
			{Name: "acc", Kind: bitflip.Float64},
			{Name: "gate", Kind: bitflip.Int64},
		},
	}}
}

func (tickTarget) TestCases(n int, seed uint64) []propane.TestCase {
	tcs := make([]propane.TestCase, n)
	for i := range tcs {
		tcs[i] = propane.TestCase{ID: i, Seed: seed + uint64(i)}
	}
	return tcs
}

func (tickTarget) Run(tc propane.TestCase, probe propane.Probe) (any, error) {
	var acc float64
	var gate int64 = 3
	vars := []propane.VarRef{
		propane.Float64Ref("acc", &acc),
		propane.Int64Ref("gate", &gate),
	}
	for i := 0; i < 6; i++ {
		probe.Visit("M", propane.Entry, vars)
		acc += float64(gate) * float64(tc.ID+1)
		probe.Visit("M", propane.Exit, vars)
	}
	return acc, nil
}

func (tickTarget) Failed(_ propane.TestCase, golden, observed any) bool {
	return golden != observed
}

// TestKillAndResumePerModel is the per-model resume acceptance: for
// every fault model, a journaled campaign killed mid-run resumes into
// records (and ARFF bytes) identical to an uninterrupted run.
func TestKillAndResumePerModel(t *testing.T) {
	for _, f := range []bitflip.Fault{
		{},
		{Model: bitflip.Burst, Width: 3},
		{Model: bitflip.StuckAt},
		{Model: bitflip.Intermittent, Persist: 2},
	} {
		t.Run(f.String(), func(t *testing.T) {
			spec := propane.Spec{
				Dataset:        "TK-A2",
				Module:         "M",
				InjectAt:       propane.Entry,
				SampleAt:       propane.Exit,
				InjectionTimes: []int{2, 4},
				TestCases:      2,
				Seed:           11,
				BitStride:      4,
				Fault:          f,
			}
			dir := filepath.Join(t.TempDir(), "journal")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := campaign.Config{
				Journal: dir,
				Shards:  8,
				OnCheckpoint: func(done, total int) {
					if done >= 2 {
						cancel()
					}
				},
			}
			if _, err := campaign.Run(ctx, tickTarget{}, spec, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: got %v, want context.Canceled", err)
			}
			res, err := campaign.Run(context.Background(), tickTarget{}, spec,
				campaign.Config{Journal: dir, Resume: true})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if res.ShardsRestored == 0 || res.ShardsRun == 0 {
				t.Fatalf("kill/resume split degenerate: restored=%d run=%d", res.ShardsRestored, res.ShardsRun)
			}
			ref, err := propane.Run(context.Background(), tickTarget{}, spec)
			if err != nil {
				t.Fatal(err)
			}
			sameCampaign(t, res.Campaign, ref)
		})
	}
}
