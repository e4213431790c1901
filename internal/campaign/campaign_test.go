package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"edem/internal/bitflip"
	"edem/internal/campaign"
	"edem/internal/dataset"
	"edem/internal/propane"
)

// fakeTarget is a tiny deterministic target whose module doubles a
// float and carries a bool guard. Per-test-case hang injection drives
// the timeout/retry/skip machinery: hangGolden blocks the first
// fault-free invocations of a test case, hangInjected blocks injected
// invocations (the engine always runs goldens before injected runs, so
// the first invocation per test case is the golden one).
type fakeTarget struct {
	mu           sync.Mutex
	calls        map[int]int // tc.ID -> invocation count
	hangGolden   map[int]int // tc.ID -> remaining golden-phase hangs
	hangInjected map[int]int // tc.ID -> remaining injected-phase hangs
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{
		calls:        map[int]int{},
		hangGolden:   map[int]int{},
		hangInjected: map[int]int{},
	}
}

func (f *fakeTarget) Name() string { return "Fake" }

func (f *fakeTarget) Modules() []propane.ModuleInfo {
	return []propane.ModuleInfo{{
		Name: "M",
		Vars: []propane.VarDecl{
			{Name: "x", Kind: bitflip.Float64},
			{Name: "ok", Kind: bitflip.Bool},
		},
	}}
}

func (f *fakeTarget) TestCases(n int, seed uint64) []propane.TestCase {
	tcs := make([]propane.TestCase, n)
	for i := range tcs {
		tcs[i] = propane.TestCase{ID: i, Seed: seed + uint64(i)}
	}
	return tcs
}

func (f *fakeTarget) Run(tc propane.TestCase, probe propane.Probe) (any, error) {
	f.mu.Lock()
	f.calls[tc.ID]++
	golden := f.calls[tc.ID] == 1 || f.hangGolden[tc.ID] > 0
	hang := false
	if golden && f.hangGolden[tc.ID] > 0 {
		f.hangGolden[tc.ID]--
		hang = true
	} else if !golden && f.hangInjected[tc.ID] > 0 {
		f.hangInjected[tc.ID]--
		hang = true
	}
	f.mu.Unlock()
	if hang {
		select {} // hung target: never returns
	}
	x := float64(tc.ID) + 1
	ok := true
	vars := []propane.VarRef{
		propane.Float64Ref("x", &x),
		propane.BoolRef("ok", &ok),
	}
	probe.Visit("M", propane.Entry, vars)
	x *= 2
	probe.Visit("M", propane.Exit, vars)
	if !ok {
		panic("fake: guard corrupted") // a crash failure mode for flipped bools
	}
	return x, nil
}

func (f *fakeTarget) Failed(_ propane.TestCase, golden, observed any) bool {
	g, o := golden.(float64), observed.(float64)
	return g != o && !(math.IsNaN(g) && math.IsNaN(o))
}

func fakeSpec(tcs int) propane.Spec {
	return propane.Spec{
		Dataset:        "FAKE-A2",
		Module:         "M",
		InjectAt:       propane.Entry,
		SampleAt:       propane.Exit,
		InjectionTimes: []int{1},
		TestCases:      tcs,
		Seed:           7,
		BitStride:      1,
	}
}

// sameCampaign asserts the engine output matches a reference campaign
// record for record, and that the derived datasets are byte-identical
// ARFF — the acceptance criterion of the resume guarantee.
func sameCampaign(t *testing.T, got, want *propane.Campaign) {
	t.Helper()
	if got.Target != want.Target || !reflect.DeepEqual(got.VarNames, want.VarNames) {
		t.Fatalf("campaign header mismatch: %v/%v vs %v/%v", got.Target, got.VarNames, want.Target, want.VarNames)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("record count %d, want %d", len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		if !reflect.DeepEqual(got.Records[i], want.Records[i]) {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, got.Records[i], want.Records[i])
		}
	}
	var gb, wb bytes.Buffer
	gd, err := propane.ToDataset(got)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := propane.ToDataset(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteARFF(&gb, gd); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteARFF(&wb, wd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatal("ARFF serialisations differ")
	}
}

// TestEquivalentToPropaneRun pins the bit-identity of the engine's
// in-memory path against the single-shot reference implementation.
func TestEquivalentToPropaneRun(t *testing.T) {
	spec := fakeSpec(3)
	ref, err := propane.Run(context.Background(), newFakeTarget(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(context.Background(), newFakeTarget(), spec, campaign.Config{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, res.Campaign, ref)
	if res.ShardsRun != 7 || res.ShardsRestored != 0 {
		t.Fatalf("expected 7 fresh shards, got run=%d restored=%d", res.ShardsRun, res.ShardsRestored)
	}
}

// TestKillAndResume interrupts a journaled campaign after two
// checkpoints (simulating a kill), resumes it, and asserts the resumed
// output is bit-identical to an uninterrupted run — records, dataset
// and ARFF bytes.
func TestKillAndResume(t *testing.T) {
	spec := fakeSpec(3)
	dir := filepath.Join(t.TempDir(), "journal")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := campaign.Config{
		Journal: dir,
		Shards:  10,
		OnCheckpoint: func(done, total int) {
			if done >= 2 {
				cancel()
			}
		},
	}
	if _, err := campaign.Run(ctx, newFakeTarget(), spec, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: got %v, want context.Canceled", err)
	}

	// The journal must hold the checkpoints that completed before the
	// kill; the exact count can exceed 2 with concurrent shards.
	data, err := os.ReadFile(filepath.Join(dir, "checkpoints.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := bytes.Count(data, []byte("\n"))
	if checkpoints < 2 || checkpoints >= 10 {
		t.Fatalf("journal has %d checkpoints, want in [2, 10)", checkpoints)
	}

	res, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.ShardsRestored != checkpoints {
		t.Errorf("restored %d shards, journal had %d", res.ShardsRestored, checkpoints)
	}
	if res.ShardsRun != 10-checkpoints {
		t.Errorf("resume ran %d shards, want %d", res.ShardsRun, 10-checkpoints)
	}

	ref, err := propane.Run(context.Background(), newFakeTarget(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, res.Campaign, ref)

	// A second resume replays everything from the journal: zero runs.
	res2, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ShardsRun != 0 || res2.ShardsRestored != 10 {
		t.Errorf("full replay: run=%d restored=%d, want 0/10", res2.ShardsRun, res2.ShardsRestored)
	}
	sameCampaign(t, res2.Campaign, ref)
}

// TestResumeToleratesTornTail: a kill mid-append leaves a truncated
// final line; resume must discard it and re-run that shard.
func TestResumeToleratesTornTail(t *testing.T) {
	spec := fakeSpec(2)
	dir := filepath.Join(t.TempDir(), "journal")
	if _, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: dir, Shards: 5}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoints.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the last line's tail, simulating a torn append.
	lines := bytes.SplitAfter(data, []byte("\n"))
	last := lines[len(lines)-2]
	torn := append(bytes.Join(lines[:len(lines)-2], nil), last[:len(last)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsRestored != 4 || res.ShardsRun != 1 {
		t.Errorf("torn resume: restored=%d run=%d, want 4/1", res.ShardsRestored, res.ShardsRun)
	}
	if res.TornTails != 1 {
		t.Errorf("torn resume: TornTails=%d, want 1", res.TornTails)
	}
	ref, err := propane.Run(context.Background(), newFakeTarget(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, res.Campaign, ref)
}

// TestJournalGuards pins the refusal semantics: an existing journal
// without Resume is an error, and a journal written under a different
// plan (here: another bit stride) cannot be resumed.
func TestJournalGuards(t *testing.T) {
	spec := fakeSpec(2)
	dir := filepath.Join(t.TempDir(), "journal")
	if _, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: dir, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	_, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: dir})
	if !errors.Is(err, campaign.ErrJournalExists) {
		t.Errorf("re-open without resume: got %v, want ErrJournalExists", err)
	}
	other := spec
	other.BitStride = 2
	_, err = campaign.Run(context.Background(), newFakeTarget(), other,
		campaign.Config{Journal: dir, Resume: true})
	if !errors.Is(err, campaign.ErrPlanMismatch) {
		t.Errorf("resume with different plan: got %v, want ErrPlanMismatch", err)
	}
}

// TestRetryRecoversFlakyTarget: a target that hangs twice on one
// injected run must be retried past the hangs and produce a campaign
// identical to a well-behaved target's.
func TestRetryRecoversFlakyTarget(t *testing.T) {
	spec := fakeSpec(2)
	flaky := newFakeTarget()
	flaky.hangInjected[1] = 2

	res, err := campaign.Run(context.Background(), flaky, spec, campaign.Config{
		Shards:     4,
		Timeout:    50 * time.Millisecond,
		MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries < 2 {
		t.Errorf("retries = %d, want >= 2", res.Retries)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("unexpected skips: %+v", res.Skipped)
	}
	ref, err := propane.Run(context.Background(), newFakeTarget(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, res.Campaign, ref)
}

// TestPersistentHangSkipsCells: with retries exhausted, every hung cell
// is skipped-and-recorded (not fatal) and the rest of the campaign
// survives intact.
func TestPersistentHangSkipsCells(t *testing.T) {
	spec := fakeSpec(2)
	flaky := newFakeTarget()
	flaky.hangInjected[1] = 1 << 30 // every injected run of tc 1 hangs

	res, err := campaign.Run(context.Background(), flaky, spec, campaign.Config{
		Shards:     4,
		Timeout:    20 * time.Millisecond,
		MaxRetries: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	perTC := len(res.Campaign.Records) / 2
	if len(res.Skipped) != perTC {
		t.Fatalf("skipped %d cells, want %d (all of tc 1)", len(res.Skipped), perTC)
	}
	for _, s := range res.Skipped {
		if s.TC != 1 || !strings.Contains(s.Reason, "timeout") {
			t.Fatalf("unexpected skip %+v", s)
		}
	}
	for _, rec := range res.Campaign.Records {
		if rec.TestCase == 1 && rec.Sampled {
			t.Fatal("skipped cell has a sampled record")
		}
		if rec.TestCase == 0 && !rec.Sampled {
			t.Fatal("healthy cell lost its record")
		}
	}
	// The surviving half still yields a dataset.
	d, err := propane.ToDataset(res.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != perTC {
		t.Errorf("dataset has %d instances, want %d", d.Len(), perTC)
	}
}

// TestGoldenFailureSkipsTestCase: a test case whose golden run hangs
// persistently poisons only its own cells, with the golden reason.
func TestGoldenFailureSkipsTestCase(t *testing.T) {
	spec := fakeSpec(2)
	flaky := newFakeTarget()
	flaky.hangGolden[0] = 1 << 30

	res, err := campaign.Run(context.Background(), flaky, spec, campaign.Config{
		Shards:     4,
		Timeout:    20 * time.Millisecond,
		MaxRetries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	perTC := len(res.Campaign.Records) / 2
	if len(res.Skipped) != perTC {
		t.Fatalf("skipped %d cells, want %d", len(res.Skipped), perTC)
	}
	for _, s := range res.Skipped {
		if s.TC != 0 || !strings.Contains(s.Reason, "golden run failed") {
			t.Fatalf("unexpected skip %+v", s)
		}
	}
}

// TestStateBitsRoundTrip pins the journal's bit-exact state encoding
// for the values JSON numbers cannot carry: NaN and the infinities
// sampled from corrupted floating-point state.
func TestStateBitsRoundTrip(t *testing.T) {
	spec := fakeSpec(3)
	dir := filepath.Join(t.TempDir(), "journal")
	res, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: dir, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	hasNonFinite := false
	for _, rec := range res.Campaign.Records {
		for _, v := range rec.State {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				hasNonFinite = true
			}
		}
	}
	if !hasNonFinite {
		t.Skip("campaign produced no non-finite states; exponent flips should have")
	}
	replay, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if replay.ShardsRun != 0 {
		t.Fatalf("replay executed %d shards, want 0", replay.ShardsRun)
	}
	for i := range res.Campaign.Records {
		a, b := res.Campaign.Records[i], replay.Campaign.Records[i]
		if len(a.State) != len(b.State) {
			t.Fatalf("record %d state length differs", i)
		}
		for k := range a.State {
			if math.Float64bits(a.State[k]) != math.Float64bits(b.State[k]) {
				t.Fatalf("record %d state[%d]: %x != %x", i, k,
					math.Float64bits(a.State[k]), math.Float64bits(b.State[k]))
			}
		}
	}
}
