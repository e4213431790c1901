package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"edem/internal/campaign"
	"edem/internal/propane"
	"edem/internal/serve"
	"edem/internal/telemetry"
)

// WorkerConfig tunes one fabric worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g.
	// "http://127.0.0.1:9090".
	Coordinator string
	// Name identifies this worker in leases and logs (default
	// "worker").
	Name string
	// Poll is the idle wait between lease attempts when nothing is
	// leasable (default 200ms).
	Poll time.Duration
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
	// Registry receives the fabric.worker_* metrics; nil falls back to
	// the process default registry.
	Registry *telemetry.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// AuthToken, when non-empty, is sent as "Authorization: Bearer
	// <token>" on every coordinator call — required when the
	// coordinator was started with an auth token.
	AuthToken string
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Name == "" {
		c.Name = "worker"
	}
	if c.Poll <= 0 {
		c.Poll = 200 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Worker executes leased shards against a coordinator. Create with
// NewWorker (which prepares the campaign executor — goldens and all —
// and verifies the plan identity against the coordinator), run with
// Run.
type Worker struct {
	cfg WorkerConfig
	x   *campaign.Executor

	mShards    *telemetry.Counter
	mStolen    *telemetry.Counter
	mAbandoned *telemetry.Counter
	mDupes     *telemetry.Counter
}

// NewWorker fetches the coordinator's plan, builds the local executor
// with the coordinator's shard count, and refuses to start when the
// plan hashes disagree — a worker with a different target build, spec
// or test-case generator would otherwise poison the journal.
func NewWorker(ctx context.Context, target propane.Target, spec propane.Spec, ccfg campaign.Config, cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	w := &Worker{cfg: cfg}
	reg := cfg.Registry
	w.mShards = reg.Counter("fabric.worker_shards")
	w.mStolen = reg.Counter("fabric.worker_steals")
	w.mAbandoned = reg.Counter("fabric.worker_abandoned")
	w.mDupes = reg.Counter("fabric.worker_duplicates")

	st, err := w.fetchPlan(ctx)
	if err != nil {
		return nil, err
	}
	x, err := campaign.NewExecutorShards(ctx, target, spec, ccfg, st.Shards)
	if err != nil {
		return nil, err
	}
	if x.Plan().Hash != st.Plan {
		return nil, fmt.Errorf("fabric: worker plan %.12s disagrees with coordinator plan %.12s (different target build or spec?)",
			x.Plan().Hash, st.Plan)
	}
	w.x = x
	return w, nil
}

// errShardDone aborts a shard whose result is already merged.
var errShardDone = errors.New("fabric: shard completed elsewhere")

// Run leases, executes and uploads shards until the coordinator
// reports the campaign complete (returns nil), ctx is cancelled, or
// the coordinator stays unreachable past the retry budget.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lr, err := w.lease(ctx)
		if err != nil {
			return err
		}
		if lr.Complete {
			w.cfg.Logf("fabric: %s: campaign complete", w.cfg.Name)
			return nil
		}
		if lr.Shard < 0 {
			select {
			case <-time.After(w.cfg.Poll):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if lr.Stolen {
			w.mStolen.Inc()
			w.cfg.Logf("fabric: %s: stealing shard %d", w.cfg.Name, lr.Shard)
		}
		done, err := w.runLeased(ctx, lr)
		if err != nil {
			if errors.Is(err, errShardDone) {
				w.mAbandoned.Inc()
				w.cfg.Logf("fabric: %s: abandoning shard %d (completed elsewhere)", w.cfg.Name, lr.Shard)
				continue
			}
			return err
		}
		if done {
			w.cfg.Logf("fabric: %s: campaign complete", w.cfg.Name)
			return nil
		}
	}
}

// runLeased executes one leased shard under a heartbeat and uploads
// its checkpoint line. The returned bool reports whether the campaign
// is now complete.
func (w *Worker) runLeased(ctx context.Context, lr LeaseResponse) (bool, error) {
	// The heartbeat renews at a third of the TTL. Losing the lease
	// (expiry, coordinator restart) does NOT abort the shard — first
	// completion wins, so finishing is still worthwhile; only a Done
	// verdict (someone else's completion merged) abandons the work.
	hctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	ttl := time.Duration(lr.TTLMS) * time.Millisecond
	if ttl > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(ttl / 3)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					resp, err := w.renew(hctx, lr.Lease)
					if err == nil && !resp.OK && resp.Done {
						cancel(errShardDone)
						return
					}
				case <-stop:
					return
				case <-hctx.Done():
					return
				}
			}
		}()
	}

	line, err := w.x.RunShard(hctx, lr.Shard)
	if err != nil {
		if errors.Is(context.Cause(hctx), errShardDone) {
			return false, errShardDone
		}
		return false, err
	}
	resp, err := w.complete(ctx, line)
	if err != nil {
		return false, err
	}
	w.mShards.Inc()
	if resp.Duplicate {
		w.mDupes.Inc()
	}
	return resp.Complete, nil
}

// fetchPlan GETs /fabric/v1/plan with retries.
func (w *Worker) fetchPlan(ctx context.Context) (PlanStatus, error) {
	var st PlanStatus
	err := retry(ctx, "fabric: plan", func() error {
		return w.call(ctx, http.MethodGet, "/fabric/v1/plan", nil, &st)
	})
	return st, err
}

func (w *Worker) lease(ctx context.Context) (LeaseResponse, error) {
	var lr LeaseResponse
	err := retry(ctx, "fabric: lease", func() error {
		return w.call(ctx, http.MethodPost, "/fabric/v1/lease", nil, &lr)
	})
	return lr, err
}

func (w *Worker) renew(ctx context.Context, lease string) (RenewResponse, error) {
	body, err := json.Marshal(RenewRequest{Lease: lease})
	if err != nil {
		return RenewResponse{}, err
	}
	var rr RenewResponse
	// Renewals do not retry: the next tick is another chance, and a
	// retry storm during a coordinator hiccup helps nobody.
	err = w.call(ctx, http.MethodPost, "/fabric/v1/renew", body, &rr)
	return rr, err
}

// complete uploads one shard's checkpoint line, which is the body of
// the request as it is.
func (w *Worker) complete(ctx context.Context, line []byte) (CompleteResponse, error) {
	var cr CompleteResponse
	err := retry(ctx, "fabric: complete", func() error {
		return w.call(ctx, http.MethodPost, "/fabric/v1/complete", line, &cr)
	})
	return cr, err
}

// The coordinator-call retry policy: at most maxRetries retries, the
// first after retryBase, each later one after twice the previous wait
// (50, 100 and 200 ms).
const (
	maxRetries = 3
	retryBase  = 50 * time.Millisecond
)

// retry runs fn until it succeeds, fails permanently, ctx expires or
// maxRetries retries have failed. A 4xx reply (a refused upload, a
// missing token) will not improve with retries and returns at once,
// unwrapped; 5xx and transport errors are retried. Every wait is
// deadline-aware: retry never sleeps past ctx's deadline just to fail
// afterwards. op prefixes the terminal error messages.
func retry(ctx context.Context, op string, fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		if se := (*serve.StatusError)(nil); errors.As(err, &se) && se.Code/100 == 4 {
			return err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%s: %w (last error: %v)", op, ctx.Err(), err)
		}
		if attempt == maxRetries {
			return fmt.Errorf("%s: %d attempts exhausted: %w", op, attempt+1, err)
		}
		delay := retryBase << attempt
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < delay {
			return fmt.Errorf("%s: deadline too close to retry: %w", op, err)
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("%s: %w (last error: %v)", op, ctx.Err(), err)
		}
	}
}

// call sends one coordinator request through serve.Do, naming this
// worker and, when configured, carrying its bearer token.
func (w *Worker) call(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", serve.ContentTypeJSON)
	req.Header.Set(workerHeader, w.cfg.Name)
	if w.cfg.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+w.cfg.AuthToken)
	}
	_, err = serve.Do(w.cfg.HTTP, req, out)
	return err
}
