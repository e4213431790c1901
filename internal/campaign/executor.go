package campaign

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"edem/internal/parallel"
	"edem/internal/propane"
	"edem/internal/telemetry"
)

// Executor runs the shards of one plan. It owns the prepared goldens
// and the fork fast path, so a shard costs only its own injected runs;
// golden preparation is paid once per Executor. campaign.Run runs its
// pending shards on one, and so does every fabric worker.
//
// An Executor is safe for concurrent shard runs: shards touch disjoint
// plan ranges and the executor shares only immutable state (plan, test
// cases, goldens) and atomic counters.
type Executor struct {
	cfg     Config
	plan    *Plan
	target  propane.Target
	reg     *telemetry.Registry
	metrics *propane.RunMetrics

	// fork executes the cells; built with the goldens.
	fork *propane.ForkRunner

	tcs     []propane.TestCase
	goldens []any
	// goldenErr[i] non-empty marks test case i as persistently failing
	// its golden run; every cell touching it is skipped with the reason.
	goldenErr []string

	retries atomic.Int64
}

// newExecutor returns plan's executor with its goldens not yet
// prepared, reporting to ctx's registry.
func newExecutor(ctx context.Context, target propane.Target, plan *Plan, cfg Config) *Executor {
	reg := telemetry.FromContext(ctx)
	return &Executor{
		cfg:     cfg,
		plan:    plan,
		target:  target,
		reg:     reg,
		metrics: propane.NewRunMetrics(reg).WithFault(plan.Spec.Fault),
	}
}

// NewExecutorShards builds the plan for (target, spec) with the given
// shard count, prepares the goldens and returns an executor ready to
// run any shard. The plan's shard count is the explicit shards argument
// and cfg.Shards is ignored: a fabric worker passes the coordinator's
// shard count, which is part of the plan identity. Of the rest of
// Config the executor honours the execution knobs (Timeout,
// MaxRetries). The journal fields belong to whoever commits the shards
// the executor returns: a fabric worker's executor touches no disk and
// hands each shard's checkpoint line to the coordinator's ledger.
func NewExecutorShards(ctx context.Context, target propane.Target, spec propane.Spec, cfg Config, shards int) (*Executor, error) {
	plan, err := NewPlan(target, spec, shards)
	if err != nil {
		return nil, err
	}
	x := newExecutor(ctx, target, plan, cfg)
	if err := x.prepareGoldens(ctx); err != nil {
		return nil, err
	}
	return x, nil
}

// Plan returns the executor's resolved plan. Callers compare its Hash
// and Shards against the coordinator's before leasing work.
func (x *Executor) Plan() *Plan { return x.plan }

// RunShard executes one shard and returns its canonical journal line.
// The line is byte-identical to the one a local campaign.Run of the
// same plan commits for that shard, which is what lets the coordinator
// merge worker output into a journal indistinguishable from a local
// one.
func (x *Executor) RunShard(ctx context.Context, shard int) ([]byte, error) {
	if shard < 0 || shard >= x.plan.Shards {
		return nil, fmt.Errorf("campaign: shard %d out of range [0,%d)", shard, x.plan.Shards)
	}
	lo, hi := x.plan.ShardRange(shard)
	recs := make([]propane.Record, hi-lo)
	skipped, err := x.runShard(ctx, shard, recs)
	if err != nil {
		return nil, err
	}
	return encodeCheckpointLine(newCheckpoint(x.plan.Hash, shard, recs, skipped))
}

// prepareGoldens generates the test cases, executes their fault-free
// runs under the same timeout/retry regime as injected runs, and builds
// the fork runner that executes the cells. A test case whose golden run
// fails persistently poisons only its own cells.
func (x *Executor) prepareGoldens(ctx context.Context) error {
	x.fork = propane.NewForkRunner(x.target, x.plan.Spec, x.plan.Module)
	x.tcs = x.target.TestCases(x.plan.Spec.TestCases, x.plan.Spec.Seed)
	if len(x.tcs) < x.plan.Spec.TestCases {
		return fmt.Errorf("campaign: target generated %d test cases, spec needs %d", len(x.tcs), x.plan.Spec.TestCases)
	}
	x.goldens = make([]any, len(x.tcs))
	x.goldenErr = make([]string, len(x.tcs))
	x.reg.Counter("campaign.golden_runs").Add(int64(len(x.tcs)))
	return parallel.ForEach(ctx, len(x.tcs), x.plan.Spec.Workers, func(i int) error {
		out, attempts, err := x.attempt(ctx, func() (any, error) {
			return propane.RunGolden(x.target, x.tcs[i])
		})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			x.goldenErr[i] = fmt.Sprintf("golden run failed after %d attempts: %v", attempts, err)
			return nil
		}
		x.goldens[i] = out
		return nil
	})
}

// runShards executes the pending shards on the shared scheduler into
// their ranges of records and, when ledger is non-nil, commits each as
// it completes. Jobs within a shard run serially so a shard is one unit
// of loss on kill; parallelism comes from running shards concurrently,
// which is ample because plans have many more shards than workers. done
// is the count of shards already committed, for OnCheckpoint.
func (x *Executor) runShards(ctx context.Context, ledger *Ledger, pending []int, done int, records []propane.Record) ([]SkippedCell, error) {
	var mu sync.Mutex // guards skipped and done, and serialises OnCheckpoint
	var skipped []SkippedCell
	err := parallel.ForEach(ctx, len(pending), x.plan.Spec.Workers, func(k int) error {
		shard := pending[k]
		lo, hi := x.plan.ShardRange(shard)
		cells, err := x.runShard(ctx, shard, records[lo:hi])
		if err != nil {
			return err
		}
		if ledger != nil {
			if _, err := ledger.commit(newCheckpoint(x.plan.Hash, shard, records[lo:hi], cells)); err != nil {
				return fmt.Errorf("campaign: checkpoint shard %d: %w", shard, err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		skipped = append(skipped, cells...)
		done++
		if x.cfg.OnCheckpoint != nil {
			x.cfg.OnCheckpoint(done, x.plan.Shards)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: interrupted (journal is resumable): %w", err)
	}
	return skipped, nil
}

// runShard executes every cell of one shard serially, writes the
// shard's records into recs (its plan range, in job order) and returns
// the cells it skipped. Goldens must be prepared first.
func (x *Executor) runShard(ctx context.Context, shard int, recs []propane.Record) ([]SkippedCell, error) {
	lo, _ := x.plan.ShardRange(shard)
	var skipped []SkippedCell
	for i := range recs {
		rec, skip, err := x.runCell(ctx, lo+i)
		if err != nil {
			return nil, err
		}
		recs[i] = rec
		if skip != nil {
			skipped = append(skipped, *skip)
		}
	}
	return skipped, nil
}

// runCell executes one cell of the injection space on the fork runner
// with retry, timeout and panic isolation. The returned error is only
// ever a context error: infrastructure failures degrade to a skip,
// injected-run crashes are data.
func (x *Executor) runCell(ctx context.Context, idx int) (propane.Record, *SkippedCell, error) {
	j := x.plan.Jobs[idx]
	placeholder := propane.Record{
		TestCase:      x.tcs[j.TC].ID,
		Var:           x.plan.Module.Vars[j.Var].Name,
		Bit:           j.Bit,
		InjectionTime: j.Time,
	}
	if reason := x.goldenErr[j.TC]; reason != "" {
		return placeholder, x.skipCell(idx, j, 0, reason), nil
	}
	var runStart time.Time
	if x.metrics.Enabled() {
		runStart = time.Now()
	}
	out, attempts, err := x.attempt(ctx, func() (any, error) {
		return x.fork.RunJob(j.TC, x.tcs[j.TC], x.goldens[j.TC], j), nil
	})
	if ctx.Err() != nil {
		return placeholder, nil, ctx.Err()
	}
	if err != nil {
		return placeholder, x.skipCell(idx, j, attempts, err.Error()), nil
	}
	rec := out.(propane.Record)
	if x.metrics.Enabled() {
		x.metrics.Observe(rec, time.Since(runStart))
	}
	return rec, nil, nil
}

func (x *Executor) skipCell(idx int, j propane.Job, attempts int, reason string) *SkippedCell {
	return &SkippedCell{
		Job:      idx,
		TC:       x.tcs[j.TC].ID,
		Var:      x.plan.Module.Vars[j.Var].Name,
		Bit:      j.Bit,
		Time:     j.Time,
		Attempts: attempts,
		Reason:   reason,
	}
}

// attempt runs fn under the per-attempt watchdog, retrying failed
// attempts with exponential backoff up to cfg.MaxRetries extra times.
// fn panics are converted to errors; a context cancellation aborts
// immediately (callers check ctx.Err to distinguish abort from skip).
func (x *Executor) attempt(ctx context.Context, fn func() (any, error)) (out any, attempts int, err error) {
	for attempts = 1; ; attempts++ {
		out, err = x.watchdog(ctx, fn)
		if err == nil || ctx.Err() != nil {
			return out, attempts, err
		}
		if attempts > x.cfg.MaxRetries { // also ends a negative budget after one attempt
			return nil, attempts, err
		}
		x.retries.Add(1)
		select {
		case <-time.After(retryDelay(attempts)):
		case <-ctx.Done():
			return nil, attempts, ctx.Err()
		}
	}
}

// watchdog runs one attempt of fn, converting panics to errors and
// enforcing cfg.Timeout. On timeout the attempt's goroutine is
// abandoned, not killed — Go offers no preemptive kill, so a truly hung
// target leaks one goroutine per abandoned attempt. That is the
// documented cost of in-process isolation (process-level isolation à la
// ZOFI is the escalation path; DESIGN.md §11).
func (x *Executor) watchdog(ctx context.Context, fn func() (any, error)) (any, error) {
	safe := func() (out any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("campaign: engine panic: %v", r)
			}
		}()
		return fn()
	}
	if x.cfg.Timeout <= 0 {
		return safe()
	}
	type result struct {
		out any
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, err := safe()
		ch <- result{out, err}
	}()
	timer := time.NewTimer(x.cfg.Timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-timer.C:
		return nil, fmt.Errorf("campaign: run exceeded timeout %v", x.cfg.Timeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
