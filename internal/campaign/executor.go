package campaign

import (
	"context"
	"fmt"

	"edem/internal/propane"
	"edem/internal/telemetry"
)

// Executor runs individual shards of a plan outside the whole-campaign
// Run loop — the fabric worker's engine. It owns the prepared goldens
// and the fork fast path, so leasing a shard costs only the shard's own
// injected runs; golden preparation is paid once per Executor.
//
// An Executor is safe for concurrent RunShard calls: shards touch
// disjoint plan ranges and the underlying engine shares only immutable
// state (plan, test cases, goldens) and atomic counters.
type Executor struct {
	e *engine
}

// NewExecutor builds the plan for (target, spec), prepares the goldens
// and returns an executor ready to run any shard. Config is honoured
// for execution knobs (Shards, Timeout, MaxRetries, Backoff);
// journal fields are ignored — executors never touch disk, they hand
// encoded checkpoint lines to the caller.
func NewExecutor(ctx context.Context, target propane.Target, spec propane.Spec, cfg Config) (*Executor, error) {
	plan, err := NewPlan(target, spec, cfg.Shards)
	if err != nil {
		return nil, err
	}
	return newExecutorForPlan(ctx, target, plan, cfg)
}

// NewExecutorShards is NewExecutor with an explicit shard count taking
// precedence over cfg.Shards — the worker uses it to adopt the
// coordinator's sharding, which is part of the plan identity.
func NewExecutorShards(ctx context.Context, target propane.Target, spec propane.Spec, cfg Config, shards int) (*Executor, error) {
	plan, err := NewPlan(target, spec, shards)
	if err != nil {
		return nil, err
	}
	return newExecutorForPlan(ctx, target, plan, cfg)
}

func newExecutorForPlan(ctx context.Context, target propane.Target, plan *Plan, cfg Config) (*Executor, error) {
	reg := telemetry.FromContext(ctx)
	e := &engine{
		cfg:     cfg,
		plan:    plan,
		target:  target,
		reg:     reg,
		metrics: propane.NewRunMetrics(reg).WithFault(plan.Spec.Fault),
	}
	if err := e.prepareGoldens(ctx); err != nil {
		return nil, err
	}
	return &Executor{e: e}, nil
}

// Plan returns the executor's resolved plan. Callers compare its Hash
// and Shards against the coordinator's before leasing work.
func (x *Executor) Plan() *Plan { return x.e.plan }

// RunShard executes one shard and returns its canonical journal line
// (encodeCheckpointLine output). The line is byte-identical to what a
// local campaign.Run of the same plan would append for that shard,
// which is what lets the coordinator merge worker output into a journal
// indistinguishable from a local one.
func (x *Executor) RunShard(ctx context.Context, shard int) ([]byte, error) {
	if shard < 0 || shard >= x.e.plan.Shards {
		return nil, fmt.Errorf("campaign: shard %d out of range [0,%d)", shard, x.e.plan.Shards)
	}
	cp, err := x.e.runShard(ctx, shard, nil)
	if err != nil {
		return nil, err
	}
	return encodeCheckpointLine(cp)
}
