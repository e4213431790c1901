package fabric

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"edem/internal/bitflip"
	"edem/internal/campaign"
	"edem/internal/propane"
	"edem/internal/serve"
	"edem/internal/telemetry"
)

// testTarget is a tiny deterministic target (a module that doubles a
// float, guarded by a bool). Stateless, so one value can safely back
// any number of executors and workers.
type testTarget struct{}

func (testTarget) Name() string { return "FabricFake" }

func (testTarget) Modules() []propane.ModuleInfo {
	return []propane.ModuleInfo{{
		Name: "M",
		Vars: []propane.VarDecl{
			{Name: "x", Kind: bitflip.Float64},
			{Name: "ok", Kind: bitflip.Bool},
		},
	}}
}

func (testTarget) TestCases(n int, seed uint64) []propane.TestCase {
	tcs := make([]propane.TestCase, n)
	for i := range tcs {
		tcs[i] = propane.TestCase{ID: i, Seed: seed + uint64(i)}
	}
	return tcs
}

func (testTarget) Run(tc propane.TestCase, probe propane.Probe) (any, error) {
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
		panic("testTarget: guard corrupted")
	}
	return x, nil
}

func (testTarget) Failed(_ propane.TestCase, golden, observed any) bool {
	g, o := golden.(float64), observed.(float64)
	return g != o && !(math.IsNaN(g) && math.IsNaN(o))
}

func testSpec(tcs int) propane.Spec {
	return propane.Spec{
		Dataset:        "FAB-A1",
		Module:         "M",
		InjectAt:       propane.Entry,
		SampleAt:       propane.Exit,
		InjectionTimes: []int{1},
		TestCases:      tcs,
		Seed:           7,
		BitStride:      1,
	}
}

// TestCompleteTakesRawLine: POST /fabric/v1/complete merges the
// checkpoint line its body carries, and refuses an oversized worker
// name (400) and a body that is no checkpoint line (422) without
// committing anything.
func TestCompleteTakesRawLine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	co, err := NewCoordinator(testTarget{}, testSpec(1), campaign.Config{Journal: dir, Shards: 1}, coordConfig(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	x, err := campaign.NewExecutorShards(context.Background(), testTarget{}, testSpec(1), campaign.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	line, err := x.RunShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	post := func(worker string, body []byte) (CompleteResponse, error) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/fabric/v1/complete", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(workerHeader, worker)
		var cr CompleteResponse
		_, err = serve.Do(nil, req, &cr)
		return cr, err
	}

	for _, c := range []struct {
		name, worker string
		body         []byte
		code         int
	}{
		{"oversized name", strings.Repeat("w", maxNameLen+1), line, http.StatusBadRequest},
		{"not a checkpoint line", "w1", []byte("{}\n"), http.StatusUnprocessableEntity},
	} {
		_, err := post(c.worker, c.body)
		var se *serve.StatusError
		if !errors.As(err, &se) || se.Code != c.code {
			t.Errorf("%s: err = %v, want status %d", c.name, err, c.code)
		}
	}
	if st := co.Status(); st.Done != 0 {
		t.Fatalf("refused uploads committed %d shards", st.Done)
	}

	cr, err := post("w1", line)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Accepted || !cr.Complete || cr.Shard != 0 {
		t.Errorf("completion: %+v, want shard 0 accepted and complete", cr)
	}
}

func coordConfig(ttl time.Duration) CoordinatorConfig {
	return CoordinatorConfig{
		LeaseTTL: ttl,
		Linger:   20 * time.Millisecond,
		Registry: telemetry.New(),
	}
}

// TestLeaseExpiryReleasesShard simulates worker crashes mid-shard at
// the constant fan-out of maxLeases per shard: both leases of each
// shard (the original and a thief's) expire without renewal or
// completion, and the shard becomes leasable again as a fresh grant,
// not a steal.
func TestLeaseExpiryReleasesShard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	co, err := NewCoordinator(testTarget{}, testSpec(2), campaign.Config{Journal: dir, Shards: 2}, coordConfig(40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	lr1 := co.grant("w1")
	lr2 := co.grant("w2")
	if lr1.Shard != 0 || lr2.Shard != 1 {
		t.Fatalf("grants: %d, %d; want 0, 1 (lowest pending first)", lr1.Shard, lr2.Shard)
	}
	lr3, lr4 := co.grant("w3"), co.grant("w4")
	if lr3.Shard != 0 || !lr3.Stolen || lr4.Shard != 1 || !lr4.Stolen {
		t.Fatalf("steals: %+v, %+v; want shards 0 then 1, both stolen", lr3, lr4)
	}
	if lr5 := co.grant("w5"); lr5.Shard != -1 {
		t.Fatalf("grant past %d leases per shard: shard %d, want -1", maxLeases, lr5.Shard)
	}

	// Every holder "crashes": none renews or completes. Past the TTL
	// both leases of shard 0 are gone, and it is re-leased fresh.
	time.Sleep(100 * time.Millisecond)
	lr6 := co.grant("w5")
	if lr6.Shard != 0 || lr6.Stolen {
		t.Fatalf("post-expiry grant: shard=%d stolen=%v, want shard 0, not stolen", lr6.Shard, lr6.Stolen)
	}
	if !co.renew(lr6.Lease).OK {
		t.Error("renewing a live lease failed")
	}
	for _, lr := range []LeaseResponse{lr1, lr3} {
		if co.renew(lr.Lease).OK {
			t.Errorf("renewing expired lease %s succeeded", lr.Lease)
		}
	}
}

// TestStealAndDuplicateFirstWins drives the straggler path: a second
// worker steals the only shard, both complete, the first completion
// wins and the loser is reported (not errored) as a duplicate.
func TestStealAndDuplicateFirstWins(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	ccfg := campaign.Config{Journal: dir, Shards: 1}
	co, err := NewCoordinator(testTarget{}, testSpec(1), ccfg, coordConfig(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	lr1 := co.grant("w1")
	lr2 := co.grant("w2")
	if lr1.Shard != 0 || lr2.Shard != 0 || !lr2.Stolen {
		t.Fatalf("grants: %+v then %+v; want both shard 0, second stolen", lr1, lr2)
	}
	if lr3 := co.grant("w3"); lr3.Shard != -1 {
		t.Fatalf("grant past %d leases per shard: shard %d, want -1", maxLeases, lr3.Shard)
	}

	x, err := campaign.NewExecutorShards(context.Background(), testTarget{}, testSpec(1), campaign.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	line, err := x.RunShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := co.complete("w2", line)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Accepted || !first.Complete {
		t.Errorf("first completion: %+v, want accepted and complete", first)
	}
	// The thief won; the original holder's renew now reports Done so it
	// can abandon the shard (exercised end-to-end by the worker loop).
	if r := co.renew(lr1.Lease); r.OK {
		t.Error("lease survived its shard's completion")
	}
	second, err := co.complete("w1", line)
	if err != nil {
		t.Fatal(err)
	}
	if second.Accepted || !second.Duplicate {
		t.Errorf("second completion: %+v, want duplicate, not accepted", second)
	}

	data, err := os.ReadFile(filepath.Join(dir, "checkpoints.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 1 {
		t.Errorf("journal has %d lines, want 1 (duplicate dropped)", n)
	}
}

// TestCoordinatorRestart kills a coordinator with a lease outstanding
// and a shard committed, restarts it over the same journal, and checks
// that committed work is restored, forgotten leases re-grant, and a
// completion computed under the dead coordinator's lease still merges.
func TestCoordinatorRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	spec := testSpec(2)
	ccfg := campaign.Config{Journal: dir, Shards: 3}
	co1, err := NewCoordinator(testTarget{}, spec, ccfg, coordConfig(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- co1.Serve(ctx1, ln) }()

	orphan := co1.grant("w1") // will outlive its coordinator
	if orphan.Shard != 0 {
		t.Fatalf("grant: shard %d, want 0", orphan.Shard)
	}
	x, err := campaign.NewExecutorShards(context.Background(), testTarget{}, spec, campaign.Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	line1, err := x.RunShard(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := co1.complete("w1", line1); err != nil || !resp.Accepted {
		t.Fatalf("commit shard 1: resp=%+v err=%v", resp, err)
	}
	cancel1()
	if err := <-serveErr; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("serve: %v", err)
	}

	// Restart. The committed shard is restored; the lease is forgotten.
	ccfg.Resume = true
	co2, err := NewCoordinator(testTarget{}, spec, ccfg, coordConfig(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	st := co2.Status()
	if st.Done != 1 || st.Leases != 0 || st.Complete {
		t.Fatalf("restarted status: %+v, want 1 done, 0 leases", st)
	}
	if lr := co2.grant("w2"); lr.Shard != 0 {
		t.Fatalf("post-restart grant: shard %d, want 0 (lease forgotten)", lr.Shard)
	}

	// A completion for shard 0 computed under the dead coordinator's
	// lease still wins: leases are hints, the ledger is the authority.
	line0, err := x.RunShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := co2.complete("w1", line0); err != nil || !resp.Accepted {
		t.Fatalf("orphaned completion: resp=%+v err=%v", resp, err)
	}
	line2, err := x.RunShard(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := co2.complete("w3", line2)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Complete {
		t.Errorf("final completion: %+v, want Complete", resp)
	}
	select {
	case <-co2.doneCh:
	default:
		t.Error("Done channel open after final commit")
	}
}

// TestTwoWorkersMatchLocalRun is the fabric acceptance test: a
// coordinator and two workers over loopback HTTP produce a sealed
// journal byte-identical to a plain local campaign.Run. Run under
// -race this also exercises the coordinator's concurrency.
func TestTwoWorkersMatchLocalRun(t *testing.T) {
	spec := testSpec(2)
	localDir := filepath.Join(t.TempDir(), "local")
	if _, err := campaign.Run(context.Background(), testTarget{}, spec,
		campaign.Config{Journal: localDir, Shards: 5}); err != nil {
		t.Fatal(err)
	}

	fabricDir := filepath.Join(t.TempDir(), "fabric")
	co, err := NewCoordinator(testTarget{}, spec, campaign.Config{Journal: fabricDir, Shards: 5},
		coordConfig(2*time.Second))
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

	wcfg := WorkerConfig{
		Coordinator: "http://" + ln.Addr().String(),
		Poll:        10 * time.Millisecond,
		Registry:    telemetry.New(),
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		cfg := wcfg
		cfg.Name = []string{"alpha", "beta"}[i]
		w, err := NewWorker(ctx, testTarget{}, spec, campaign.Config{}, cfg)
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
		t.Fatalf("serve: %v", err)
	}

	local := readJournal(t, localDir)
	fabric := readJournal(t, fabricDir)
	if !bytes.Equal(local, fabric) {
		t.Errorf("fabric journal differs from local journal (%d vs %d bytes)", len(fabric), len(local))
	}

	// And the sealed journal resumes into a fully-restored local run.
	res, err := campaign.Run(context.Background(), testTarget{}, spec,
		campaign.Config{Journal: fabricDir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsRestored != 5 || res.ShardsRun != 0 {
		t.Errorf("resume of fabric journal: restored=%d run=%d, want 5/0", res.ShardsRestored, res.ShardsRun)
	}
}

// TestWorkerRefusesForeignPlan pins the identity check: a worker whose
// spec disagrees with the coordinator's must refuse to start.
func TestWorkerRefusesForeignPlan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	co, err := NewCoordinator(testTarget{}, testSpec(2), campaign.Config{Journal: dir, Shards: 2},
		coordConfig(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.Serve(ctx, ln) }()

	other := testSpec(2)
	other.BitStride = 2
	_, err = NewWorker(ctx, testTarget{}, other, campaign.Config{}, WorkerConfig{
		Coordinator: "http://" + ln.Addr().String(),
		Registry:    telemetry.New(),
	})
	if err == nil {
		t.Fatal("worker with mismatched spec started, want refusal")
	}
	cancel()
	<-serveErr
}

// TestExecutorAdoptsCoordinatorShards pins the contract a worker relies
// on: the explicit shard count (the coordinator's) decides the plan, even
// when the worker's own campaign.Config asks for a different one.
func TestExecutorAdoptsCoordinatorShards(t *testing.T) {
	spec := testSpec(2)
	x, err := campaign.NewExecutorShards(context.Background(), testTarget{}, spec, campaign.Config{Shards: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.NewPlan(testTarget{}, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Plan(); got.Shards != 3 || got.Hash != want.Hash {
		t.Errorf("executor plan: shards=%d hash=%.12s, want 3 and %.12s", got.Shards, got.Hash, want.Hash)
	}
}

func readJournal(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "checkpoints.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// failing returns a coordinator call that fails with err on its first
// n calls and then succeeds, and the count of calls made.
func failing(n int, err error) (func() error, *int) {
	calls := 0
	return func() error {
		calls++
		if calls <= n {
			return err
		}
		return nil
	}, &calls
}

// TestRetryRecovers: retry waits out transient 5xx replies (a shedding
// or draining coordinator) and returns the first success, while a 4xx
// reply returns at once, unwrapped.
func TestRetryRecovers(t *testing.T) {
	unavailable := &serve.StatusError{Method: "POST", Path: "/fabric/v1/lease", Code: http.StatusServiceUnavailable}
	fn, calls := failing(2, unavailable)
	if err := retry(context.Background(), "fabric: lease", fn); err != nil || *calls != 3 {
		t.Fatalf("err %v after %d calls, want success on call 3 (two 503s then success)", err, *calls)
	}
	refused := &serve.StatusError{Method: "POST", Path: "/fabric/v1/complete", Code: http.StatusBadRequest}
	fn, calls = failing(1<<30, refused)
	if err := retry(context.Background(), "fabric: complete", fn); err != refused || *calls != 1 {
		t.Fatalf("err %v after %d calls, want the 400 itself after 1 call", err, *calls)
	}
}

// TestRetryBudgetExhausted: a call that keeps failing is made
// 1+maxRetries times, after waits of 50, 100 and 200 ms, and the last
// failure comes back wrapped.
func TestRetryBudgetExhausted(t *testing.T) {
	unavailable := &serve.StatusError{Method: "POST", Path: "/fabric/v1/lease", Code: http.StatusServiceUnavailable}
	fn, calls := failing(1<<30, unavailable)
	start := time.Now()
	err := retry(context.Background(), "fabric: lease", fn)
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the wrapped 503", err)
	}
	if *calls != 1+maxRetries {
		t.Fatalf("calls = %d, want %d (the first and %d retries)", *calls, 1+maxRetries, maxRetries)
	}
	if d := time.Since(start); d < 350*time.Millisecond {
		t.Fatalf("gave up after %v, want at least the 350 ms of backoff", d)
	}
}

// TestRetryDeadlineAware pins the no-futile-sleep rule: with a context
// deadline closer than the first 50 ms backoff, retry gives up after
// the first failure rather than sleeping into the deadline (a sleep
// would end in the context's own deadline error instead).
func TestRetryDeadlineAware(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	fn, calls := failing(1<<30, errors.New("connection refused"))
	err := retry(ctx, "fabric: plan", fn)
	if err == nil || !strings.Contains(err.Error(), "deadline too close to retry") {
		t.Fatalf("err = %v, want a deadline-too-close refusal", err)
	}
	if *calls != 1 {
		t.Fatalf("calls = %d, want 1", *calls)
	}
}
