package fabric

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"edem/internal/campaign"
	"edem/internal/propane"
	"edem/internal/telemetry"
)

// slowTarget is testTarget with every run delayed, so a shard outlasts
// a short linger. Its plan is testTarget's: the delay changes no record.
type slowTarget struct {
	testTarget
	delay time.Duration
}

func (s slowTarget) Run(tc propane.TestCase, probe propane.Probe) (any, error) {
	time.Sleep(s.delay)
	return s.testTarget.Run(tc, probe)
}

// serveLoopback serves co on a loopback port until ctx ends or the
// campaign completes, and returns the base URL and Serve's outcome.
func serveLoopback(t *testing.T, ctx context.Context, co *Coordinator) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- co.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), served
}

// completeByHand commits shard 0 of a one-shard testSpec(1) campaign as
// worker holder would, and requires the campaign to be complete.
func completeByHand(t *testing.T, co *Coordinator, holder string) {
	t.Helper()
	x, err := campaign.NewExecutorShards(context.Background(), testTarget{}, testSpec(1), campaign.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	line, err := x.RunShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := co.complete(holder, line); err != nil || !resp.Complete {
		t.Fatalf("holder's completion: resp=%+v err=%v, want complete", resp, err)
	}
}

// TestThiefOutlivesLinger: a worker that stole the only shard is still
// executing it (65 runs of 10 ms) when the original holder's upload
// completes the campaign, and the coordinator's 100 ms linger is far
// shorter than the shard. The coordinator keeps serving until the
// thief's renew learns Done, then lingers for the thief's next poll, so
// the thief abandons the shard, sees the campaign complete and its Run
// returns nil.
func TestThiefOutlivesLinger(t *testing.T) {
	spec := testSpec(1)
	cfg := coordConfig(600 * time.Millisecond) // the thief renews every 200 ms
	cfg.Linger = 100 * time.Millisecond
	co, err := NewCoordinator(testTarget{}, spec,
		campaign.Config{Journal: filepath.Join(t.TempDir(), "journal"), Shards: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	url, served := serveLoopback(t, ctx, co)

	if lr := co.grant("holder"); lr.Shard != 0 {
		t.Fatalf("holder's grant: %+v, want shard 0", lr)
	}
	reg := telemetry.New()
	thief, err := NewWorker(ctx, slowTarget{delay: 10 * time.Millisecond}, spec, campaign.Config{}, WorkerConfig{
		Coordinator: url,
		Name:        "thief",
		Poll:        10 * time.Millisecond,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- thief.Run(ctx) }()
	for co.Status().Leases < 2 {
		if ctx.Err() != nil {
			t.Fatal("the thief never stole the shard")
		}
		time.Sleep(5 * time.Millisecond)
	}

	completeByHand(t, co, "holder")
	if err := <-ran; err != nil {
		t.Fatalf("thief: %v, want nil once the campaign is complete", err)
	}
	if got := reg.Counter("fabric.worker_abandoned").Value(); got != 1 {
		t.Errorf("thief abandoned %d shards, want 1 (its renew learned Done)", got)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestKilledThiefHoldsLingerOneTTL: a thief that dies mid-shard never
// calls in, so its dissolved lease keeps the complete coordinator
// serving past its 20 ms linger until the lease lapses, one LeaseTTL
// after it was granted, and no longer.
func TestKilledThiefHoldsLingerOneTTL(t *testing.T) {
	const ttl = 300 * time.Millisecond
	co, err := NewCoordinator(testTarget{}, testSpec(1),
		campaign.Config{Journal: filepath.Join(t.TempDir(), "journal"), Shards: 1}, coordConfig(ttl))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, served := serveLoopback(t, ctx, co)

	granted := time.Now()
	if lr := co.grant("holder"); lr.Shard != 0 {
		t.Fatalf("holder's grant: %+v, want shard 0", lr)
	}
	if lr := co.grant("thief"); lr.Shard != 0 || !lr.Stolen {
		t.Fatalf("thief's grant: %+v, want shard 0 stolen", lr)
	}
	completeByHand(t, co, "holder")
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if d := time.Since(granted); d < ttl || d > ttl+time.Second {
		t.Errorf("coordinator served %v past the thief's grant, want one LeaseTTL (%v) and no more", d, ttl)
	}
}
