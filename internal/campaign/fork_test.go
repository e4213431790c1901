package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"edem/internal/campaign"
	"edem/internal/fabric"
	"edem/internal/propane"
	"edem/internal/serve"
	"edem/internal/targets/mp3gain"
	"edem/internal/telemetry"
)

func forkTarget() mp3gain.System {
	return mp3gain.System{TracksPerCase: 3, SamplesPerTrack: 600}
}

// slowPath hides Forkable behind an embedding, which forces every cell
// onto the slow path: the equivalence oracle for the default engine.
func slowPath(t propane.Target) propane.Target { return struct{ propane.Target }{t} }

func forkSpec() propane.Spec {
	return propane.Spec{
		Dataset:        "MG-FORK",
		Module:         mp3gain.ModuleRGain,
		InjectAt:       propane.Entry,
		SampleAt:       propane.Exit,
		InjectionTimes: []int{1, 2},
		TestCases:      2,
		Seed:           7,
		BitStride:      8,
	}
}

// TestForkEquivalentToSlowEngine pins the campaign-level contract of
// the engine: the default (forking) path and the slow path produce
// bit-identical records, datasets and ARFF bytes against a real
// Forkable target, under the same plan.
func TestForkEquivalentToSlowEngine(t *testing.T) {
	spec := forkSpec()
	slow, err := campaign.Run(context.Background(), slowPath(forkTarget()), spec, campaign.Config{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := campaign.Run(context.Background(), forkTarget(), spec, campaign.Config{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, fast.Campaign, slow.Campaign)
	// How a cell executes is not part of the plan: the journal identity
	// must not depend on it.
	if fast.PlanHash != slow.PlanHash {
		t.Fatalf("plan hash differs across execution paths: %s vs %s", fast.PlanHash, slow.PlanHash)
	}
	cells := int64(len(slow.Campaign.Records))
	if slow.Fork != (propane.ForkStats{Fallbacks: cells}) {
		t.Fatalf("slow oracle stats %+v, want %d fallbacks and nothing else", slow.Fork, cells)
	}
	if fast.Fork.Forked != cells || fast.Fork.Snapshots == 0 || fast.Fork.Fallbacks != 0 {
		t.Fatalf("default engine stats %+v, want all %d cells forked", fast.Fork, cells)
	}
}

// TestForkKillAndResume interrupts a journaled campaign, resumes it,
// and asserts bit-identity with an uninterrupted slow run. Result.Fork
// reports only the resuming invocation's cells: restored shards carry
// no fork statistics.
func TestForkKillAndResume(t *testing.T) {
	spec := forkSpec()
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
	if _, err := campaign.Run(ctx, forkTarget(), spec, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: got %v, want context.Canceled", err)
	}

	res, err := campaign.Run(context.Background(), forkTarget(), spec,
		campaign.Config{Journal: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.ShardsRestored == 0 {
		t.Fatal("resume restored nothing; the kill happened too late to exercise restore")
	}

	ref, err := campaign.Run(context.Background(), slowPath(forkTarget()), spec, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, res.Campaign, ref.Campaign)
	if total := int64(len(ref.Campaign.Records)); res.Fork.Forked == 0 || res.Fork.Forked >= total {
		t.Fatalf("resumed run forked %d of %d cells, want only the pending shards' cells", res.Fork.Forked, total)
	}

	// A slow-path replay of the journal is identical: the journal records
	// results, not execution strategy.
	res2, err := campaign.Run(context.Background(), slowPath(forkTarget()), spec,
		campaign.Config{Journal: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, res2.Campaign, ref.Campaign)
	if res2.Fork != (propane.ForkStats{}) {
		t.Fatalf("fully restored run reported fork stats: %+v", res2.Fork)
	}
}

// TestForkFallbackNonForkable: a target that does not implement
// Forkable runs every cell on the slow path, and every cell is counted
// as a fallback — in Result.Fork and in campaign.fork_fallbacks.
func TestForkFallbackNonForkable(t *testing.T) {
	spec := fakeSpec(3)
	reg := telemetry.New()
	res, err := campaign.Run(telemetry.WithRegistry(context.Background(), reg), newFakeTarget(), spec, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := propane.Run(context.Background(), newFakeTarget(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, res.Campaign, ref)
	cells := int64(len(ref.Records))
	if res.Fork != (propane.ForkStats{Fallbacks: cells}) {
		t.Fatalf("non-Forkable stats %+v, want %d fallbacks and nothing else", res.Fork, cells)
	}
	if got := reg.Counter("campaign.fork_fallbacks").Value(); got != cells {
		t.Fatalf("campaign.fork_fallbacks = %d, want %d", got, cells)
	}
}

// TestJournalDeterminism: a sealed journal is a function of the plan
// alone. With memoized verdicts shared across shards, fast-path
// statistics depend on scheduling, so the journal must not carry them:
// default-engine campaigns at one and two workers and a two-worker
// fabric loopback all seal to the slow oracle's bytes.
func TestJournalDeterminism(t *testing.T) {
	spec := forkSpec()
	const shards = 6
	oracleDir := filepath.Join(t.TempDir(), "oracle")
	if _, err := campaign.Run(context.Background(), slowPath(forkTarget()), spec,
		campaign.Config{Journal: oracleDir, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	want := readCheckpointLog(t, oracleDir)

	for _, workers := range []int{1, 2} {
		dir := filepath.Join(t.TempDir(), "local")
		s := spec
		s.Workers = workers
		if _, err := campaign.Run(context.Background(), forkTarget(), s,
			campaign.Config{Journal: dir, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		if got := readCheckpointLog(t, dir); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: sealed journal differs from the slow oracle's (%d vs %d bytes)", workers, len(got), len(want))
		}
	}

	dir := filepath.Join(t.TempDir(), "fabric")
	runFabricLoopback(t, spec, campaign.Config{Journal: dir, Shards: shards}, 2)
	if got := readCheckpointLog(t, dir); !bytes.Equal(got, want) {
		t.Errorf("fabric: sealed journal differs from the slow oracle's (%d vs %d bytes)", len(got), len(want))
	}
}

// TestResumeDropsLegacyForkStats: journals written before fork became
// the engine carry a per-shard "fork" statistics object in every
// checkpoint line. Such a journal still resumes, and sealing drops the
// field, leaving the slow oracle's bytes.
func TestResumeDropsLegacyForkStats(t *testing.T) {
	spec := forkSpec()
	const shards = 4
	oracleDir := filepath.Join(t.TempDir(), "oracle")
	ref, err := campaign.Run(context.Background(), slowPath(forkTarget()), spec,
		campaign.Config{Journal: oracleDir, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	want := readCheckpointLog(t, oracleDir)

	// Rebuild the journal as the previous format wrote it: the same
	// manifest, and only the first half of the shards, each line with
	// its fork statistics.
	dir := filepath.Join(t.TempDir(), "legacy")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(oracleDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(want), "\n")
	var legacy strings.Builder
	for _, line := range lines[:shards/2] {
		legacy.WriteString(strings.TrimSuffix(line, "}\n") + `,"fork":{"forked":3,"conv":1,"memo":1}}` + "\n")
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoints.jsonl"), []byte(legacy.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := campaign.Run(context.Background(), forkTarget(), spec,
		campaign.Config{Journal: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume of a legacy journal: %v", err)
	}
	if res.ShardsRestored != shards/2 || res.ShardsRun != shards/2 {
		t.Fatalf("restored %d, ran %d; want %d each", res.ShardsRestored, res.ShardsRun, shards/2)
	}
	sameCampaign(t, res.Campaign, ref.Campaign)
	if got := readCheckpointLog(t, dir); !bytes.Equal(got, want) {
		t.Errorf("sealed legacy journal differs from the oracle's:\n%s", got)
	}
}

func readCheckpointLog(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "checkpoints.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runFabricLoopback runs spec's campaign through a coordinator and n
// workers over loopback HTTP until the coordinator seals the journal.
func runFabricLoopback(t *testing.T, spec propane.Spec, cfg campaign.Config, n int) {
	t.Helper()
	co, err := fabric.NewCoordinator(forkTarget(), spec, cfg, fabric.CoordinatorConfig{
		LeaseTTL:     5 * time.Second,
		Linger:       20 * time.Millisecond,
		DrainTimeout: 2 * time.Second,
		Registry:     telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.Serve(ctx, ln) }()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		w, err := fabric.NewWorker(ctx, forkTarget(), spec, campaign.Config{}, fabric.WorkerConfig{
			Coordinator: "http://" + ln.Addr().String(),
			Name:        "w" + string(rune('1'+i)),
			Poll:        10 * time.Millisecond,
			Retry:       serve.Backoff{MaxRetries: 5, Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
			Registry:    telemetry.New(),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
}
