// Package campaign is the fault-tolerant execution engine for Step 1 of
// the paper's methodology: it turns a fault-injection spec into a
// deterministic sharded work plan, executes the shards on the shared
// internal/parallel scheduler with per-run timeouts, bounded retry with
// exponential backoff and panic/hang isolation, and checkpoints each
// completed shard to an append-only journal so a killed campaign
// resumes from its last checkpoint instead of starting over.
//
// The engine guarantees bit-identity: a campaign killed at any point
// and resumed (any number of times, with any worker budget or shard
// scheduling) produces exactly the records an uninterrupted run
// produces, in the same order. The argument, spelled out in DESIGN.md
// §11, rests on three facts: the work plan is a pure function of
// (target, spec) enumerated in one canonical order (propane.Spec.Jobs);
// shards are contiguous ranges of that order, restored by index; and
// journaled states are stored as IEEE-754 bit patterns, so reloading a
// record is exact. Persistently failing cells (hangs past the timeout,
// engine panics, golden-run failures) degrade to skip-and-record — the
// cell keeps an unsampled placeholder record and a SkippedCell reason
// in the result and journal — rather than aborting the campaign.
//
// Ownership and concurrency: Run is safe to call concurrently for
// distinct journal directories; a single journal directory must be
// owned by one Run at a time (the engine does not lock the directory).
// The returned Result and Campaign are owned by the caller and
// immutable thereafter. Internally, shard workers share only the
// journal (mutex-guarded), atomic counters and disjoint slices of the
// records array.
package campaign

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edem/internal/durable"
	"edem/internal/parallel"
	"edem/internal/propane"
	"edem/internal/telemetry"
)

// Config tunes the engine. The zero value runs in memory with
// auto-sized shards, no per-run watchdog and no retries: a run that
// panics is skipped and recorded on its first failure, and a run that
// hangs hangs the campaign. Set Timeout and MaxRetries to add both.
type Config struct {
	// Journal is the checkpoint directory; empty disables journaling
	// (the campaign still shards and skips failed cells, it just cannot
	// resume).
	Journal string
	// Resume permits continuing an existing journal. When false, an
	// existing journal is an error (ErrJournalExists): refusing to
	// append to a journal the caller did not know about prevents
	// accidentally mixing campaigns.
	Resume bool
	// Incremental relaxes the resume plan-identity check to a
	// per-section diff: when the journal's manifest records a different
	// plan hash, shards whose sections (test-case content sub-hashes and
	// job ranges) are unchanged are kept, everything else is invalidated
	// and re-run, and the journal is rewritten under the new plan —
	// instead of refusing the whole journal with ErrPlanMismatch.
	// Implies nothing when the hashes already match (a normal resume),
	// except that stray checkpoint lines of superseded plans are dropped
	// rather than treated as cross-wiring. Requires Resume.
	Incremental bool
	// Shards is the number of checkpoint shards; <= 0 auto-sizes to
	// ~256 jobs per shard. On resume the manifest's shard count wins,
	// so a resumed campaign may ignore this field.
	Shards int
	// Timeout bounds one attempt of one run (golden or injected);
	// <= 0 disables the watchdog. A run that exceeds it is abandoned
	// (its goroutine is leaked — Go cannot kill it — and its result
	// discarded) and the attempt counts as an infrastructure failure.
	Timeout time.Duration
	// MaxRetries is the number of additional attempts after a failed
	// one before the cell is skipped; <= 0 means none.
	MaxRetries int
	// Backoff is the delay before the first retry, doubling per
	// attempt and capped at 32×; <= 0 defaults to 50ms.
	Backoff time.Duration
	// OnCheckpoint, when non-nil, is called after every shard
	// checkpoint with the number of completed shards (including
	// restored ones) and the total. Calls are serialised but may come
	// from any worker goroutine.
	OnCheckpoint func(done, total int)
}

func (c *Config) backoff() time.Duration {
	if c.Backoff <= 0 {
		return 50 * time.Millisecond
	}
	return c.Backoff
}

// SkippedCell records one cell of the injection space that the engine
// gave up on: the job coordinates, the reason of the final failed
// attempt, and how many attempts were made. Skipped cells keep an
// unsampled placeholder record in the campaign (so datasets simply
// lack that instance) and are surfaced in Result.Skipped and the
// journal rather than failing the campaign.
type SkippedCell struct {
	Job      int    `json:"job"`
	TC       int    `json:"tc"`
	Var      string `json:"var"`
	Bit      int    `json:"bit"`
	Time     int    `json:"t"`
	Attempts int    `json:"attempts"`
	Reason   string `json:"reason"`
}

// Result is the outcome of one engine invocation.
type Result struct {
	// Campaign holds the assembled records in canonical job order,
	// bit-identical to an uninterrupted propane.Run of the same spec.
	Campaign *propane.Campaign
	// PlanHash names the executed plan (the journal's identity).
	PlanHash string
	// Shards is the total shard count of the plan.
	Shards int
	// ShardsRestored counts shards loaded from the journal instead of
	// executed; ShardsRun counts shards executed by this invocation.
	ShardsRestored, ShardsRun int
	// Retries counts failed attempts that were retried.
	Retries int
	// TornTails counts the undecodable journal lines (the torn tail of
	// a killed append) that resume skipped. A skipped line's shard is
	// re-run unless another line restores it. The fragment stays in the
	// log as its own line until the journal is sealed, so a second
	// resume before completion counts it again.
	TornTails int
	// ShardsInvalidated and ShardsReused report the incremental-resume
	// diff: journaled shards dropped because a section sub-hash changed,
	// and journaled shards carried over to the new plan. Both zero
	// outside Config.Incremental.
	ShardsInvalidated, ShardsReused int
	// Skipped lists the cells the engine gave up on, in job order.
	Skipped []SkippedCell
	// Fork reports this invocation's fast-path statistics: restored
	// shards contribute nothing (the journal does not carry them, since
	// they depend on scheduling). Every cell of a target that is not
	// Forkable counts as a fallback.
	Fork propane.ForkStats
}

// Run executes (or resumes) the campaign described by spec against
// target. See the package comment for the guarantees; see propane.Run
// for the single-shot reference implementation the results are
// bit-identical to.
//
// The run is recorded as a "campaign" telemetry phase. On top of the
// per-run campaign.* counters shared with propane.Run it reports
// campaign.shards_run, campaign.shards_restored, campaign.retries and
// campaign.cells_skipped, which is how resume savings and degraded
// cells show up in a metrics snapshot.
func Run(ctx context.Context, target propane.Target, spec propane.Spec, cfg Config) (*Result, error) {
	ctx, span := telemetry.StartSpan(ctx, "campaign")
	defer span.End()

	prep, err := preparePlan(target, spec, cfg)
	if err != nil {
		return nil, err
	}
	plan, restored, jnl := prep.plan, prep.restored, prep.jnl
	if jnl != nil {
		defer jnl.Close()
	}

	reg := telemetry.FromContext(ctx)
	e := &engine{
		cfg:     cfg,
		plan:    plan,
		target:  target,
		jnl:     jnl,
		reg:     reg,
		metrics: propane.NewRunMetrics(reg).WithFault(plan.Spec.Fault),
	}
	if jnl != nil {
		e.fresh = make([][]byte, plan.Shards)
	}
	e.done.Store(int64(len(restored)))

	records := make([]propane.Record, len(plan.Jobs))
	var skipped []SkippedCell
	for shard, cp := range restored {
		lo, hi := plan.ShardRange(shard)
		if len(cp.Records) != hi-lo {
			return nil, fmt.Errorf("campaign: checkpoint for shard %d has %d records, want %d",
				shard, len(cp.Records), hi-lo)
		}
		for i, rj := range cp.Records {
			rec, err := decodeRecord(rj)
			if err != nil {
				return nil, err
			}
			records[lo+i] = rec
		}
		skipped = append(skipped, cp.Skipped...)
	}

	var pending []int
	for s := 0; s < plan.Shards; s++ {
		if _, ok := restored[s]; !ok {
			pending = append(pending, s)
		}
	}

	var forkStats propane.ForkStats
	if len(pending) > 0 {
		if err := e.prepareGoldens(ctx); err != nil {
			return nil, err
		}
		fresh, err := e.runShards(ctx, pending, records)
		if err != nil {
			return nil, err
		}
		skipped = append(skipped, fresh...)
		e.fork.Report(e.reg)
		forkStats = e.fork.Stats()
	}

	// A fully checkpointed journal seals into its canonical form: one
	// line per shard in shard order, duplicates and torn tails dropped.
	// Sealed journals are byte-identical across execution paths (local,
	// resumed, fabric), which is what the cross-machine bit-identity
	// guarantee is pinned against. The restored checkpoints and the
	// fresh shards' appended lines are all in memory, so the log is not
	// re-scanned, and a fresh shard is not encoded twice.
	if jnl != nil {
		if err := sealCheckpoints(cfg.Journal, restored, e.fresh, plan.Shards); err != nil {
			return nil, fmt.Errorf("campaign: seal journal: %w", err)
		}
	}

	sortSkipped(skipped)
	e.reg.Counter("campaign.shards_restored").Add(int64(len(restored)))
	e.reg.Counter("campaign.shards_run").Add(e.shardsRun.Load())
	e.reg.Counter("campaign.retries").Add(e.retries.Load())
	e.reg.Counter("campaign.cells_skipped").Add(int64(len(skipped)))
	e.reg.Counter("campaign.torn_tails").Add(int64(prep.torn))
	e.reg.Counter("campaign.shards_invalidated").Add(int64(prep.invalidated))
	e.reg.Counter("campaign.shards_reused").Add(int64(prep.reused))

	varNames := make([]string, len(plan.Module.Vars))
	for i, v := range plan.Module.Vars {
		varNames[i] = v.Name
	}
	return &Result{
		Campaign:          propane.NewCampaign(spec, plan.Target, varNames, records),
		PlanHash:          plan.Hash,
		Shards:            plan.Shards,
		ShardsRestored:    len(restored),
		ShardsRun:         int(e.shardsRun.Load()),
		Retries:           int(e.retries.Load()),
		TornTails:         prep.torn,
		ShardsInvalidated: prep.invalidated,
		ShardsReused:      prep.reused,
		Skipped:           skipped,
		Fork:              forkStats,
	}, nil
}

// prepState is what preparePlan hands to Run: the resolved plan, the
// shards restored from the journal, the open journal (nil when
// journaling is off), and the resume bookkeeping that feeds telemetry
// and the Result.
type prepState struct {
	plan     *Plan
	restored map[int]checkpoint
	jnl      *durable.Log
	// torn counts undecodable (torn) lines skipped on resume;
	// invalidated and reused count the incremental diff (journaled
	// shards dropped vs carried over).
	torn, invalidated, reused int
}

// preparePlan builds the plan and reconciles it with any existing
// journal: a fresh directory gets a manifest, an existing one is
// validated (hash match, Resume set) and its completed shards are
// loaded. Under Config.Incremental a hash mismatch triggers the
// per-section diff (see reconcileIncremental) instead of failing.
// With no journal configured it returns a bare plan.
func preparePlan(target propane.Target, spec propane.Spec, cfg Config) (*prepState, error) {
	if cfg.Incremental && !cfg.Resume {
		return nil, fmt.Errorf("campaign: Incremental requires Resume")
	}
	if cfg.Journal == "" {
		plan, err := NewPlan(target, spec, cfg.Shards)
		if err != nil {
			return nil, err
		}
		return &prepState{plan: plan, restored: map[int]checkpoint{}}, nil
	}
	m, exists, err := readManifest(cfg.Journal)
	if err != nil {
		return nil, err
	}
	if !exists {
		plan, err := NewPlan(target, spec, cfg.Shards)
		if err != nil {
			return nil, err
		}
		jnl, err := createJournal(cfg.Journal, plan)
		if err != nil {
			return nil, err
		}
		return &prepState{plan: plan, restored: map[int]checkpoint{}, jnl: jnl}, nil
	}
	if !cfg.Resume {
		return nil, fmt.Errorf("%w: %s", ErrJournalExists, cfg.Journal)
	}
	// The manifest's shard count wins over cfg.Shards: shard boundaries
	// are part of the plan identity, and the journal was cut with these.
	plan, err := NewPlan(target, spec, m.Shards)
	if err != nil {
		return nil, err
	}
	if m.Plan != plan.Hash {
		if !cfg.Incremental {
			return nil, fmt.Errorf("%w: journal %s has plan %.12s, current spec yields %.12s",
				ErrPlanMismatch, cfg.Journal, m.Plan, plan.Hash)
		}
		return prepareIncremental(target, spec, cfg, m)
	}
	// On the hash-match path, Incremental additionally tolerates (and
	// purges) stray lines of superseded plans: a kill between the
	// manifest and checkpoint rewrites of an incremental upgrade leaves
	// the new manifest over the old plan's lines.
	restored, torn, foreign, err := readCheckpoints(cfg.Journal, plan.Hash, cfg.Incremental)
	if err != nil {
		return nil, err
	}
	// Foreign lines are compacted away now, since sealing refuses
	// them. A torn tail needs no rewrite: reopening the log terminates
	// the fragment's line, and sealing drops it.
	if foreign > 0 {
		if err := writeCheckpointLog(cfg.Journal, restored, nil); err != nil {
			return nil, err
		}
	}
	jnl, err := openCheckpoints(cfg.Journal)
	if err != nil {
		return nil, err
	}
	st := &prepState{plan: plan, restored: restored, jnl: jnl, torn: torn}
	if cfg.Incremental {
		st.invalidated = foreign
		st.reused = len(restored)
	}
	return st, nil
}

// engine carries the shared state of one Run invocation.
type engine struct {
	cfg    Config
	plan   *Plan
	target propane.Target
	jnl    *durable.Log
	reg    *telemetry.Registry

	// fresh holds, when journaling, each shard's canonical checkpoint
	// line as runShards appends it, so Run seals from memory. Shards
	// write disjoint slots, so no lock is needed.
	fresh [][]byte

	// fork executes the cells; built with the goldens.
	fork *propane.ForkRunner

	metrics *propane.RunMetrics

	tcs     []propane.TestCase
	goldens []any
	// goldenErr[i] non-empty marks test case i as persistently failing
	// its golden run; every cell touching it is skipped with the reason.
	goldenErr []string

	done      atomic.Int64 // checkpointed shards, restored + run
	shardsRun atomic.Int64
	retries   atomic.Int64

	cpMu sync.Mutex // serialises OnCheckpoint callbacks
}

// prepareGoldens generates the test cases, executes their fault-free
// runs under the same timeout/retry regime as injected runs, and builds
// the fork runner that executes the cells. A test case whose golden run
// fails persistently poisons only its own cells.
func (e *engine) prepareGoldens(ctx context.Context) error {
	e.fork = propane.NewForkRunner(e.target, e.plan.Spec, e.plan.Module)
	e.tcs = e.target.TestCases(e.plan.Spec.TestCases, e.plan.Spec.Seed)
	if len(e.tcs) < e.plan.Spec.TestCases {
		return fmt.Errorf("campaign: target generated %d test cases, spec needs %d", len(e.tcs), e.plan.Spec.TestCases)
	}
	e.goldens = make([]any, len(e.tcs))
	e.goldenErr = make([]string, len(e.tcs))
	e.reg.Counter("campaign.golden_runs").Add(int64(len(e.tcs)))
	return parallel.ForEach(ctx, len(e.tcs), e.plan.Spec.Workers, func(i int) error {
		out, attempts, err := e.attempt(ctx, func() (any, error) {
			return propane.RunGolden(e.target, e.tcs[i])
		})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			e.goldenErr[i] = fmt.Sprintf("golden run failed after %d attempts: %v", attempts, err)
			return nil
		}
		e.goldens[i] = out
		return nil
	})
}

// runShards executes the pending shards on the shared scheduler. Jobs
// within a shard run serially so a shard is one unit of loss on kill;
// parallelism comes from running shards concurrently, which is ample
// because plans have many more shards than workers.
func (e *engine) runShards(ctx context.Context, pending []int, records []propane.Record) ([]SkippedCell, error) {
	var mu sync.Mutex
	var skipped []SkippedCell
	err := parallel.ForEach(ctx, len(pending), e.plan.Spec.Workers, func(k int) error {
		shard := pending[k]
		cp, err := e.runShard(ctx, shard, records)
		if err != nil {
			return err
		}
		if e.jnl != nil {
			line, err := encodeCheckpointLine(cp)
			if err == nil {
				err = e.jnl.Append(line)
			}
			if err != nil {
				return fmt.Errorf("campaign: checkpoint shard %d: %w", shard, err)
			}
			e.fresh[shard] = line
		}
		e.shardsRun.Add(1)
		done := int(e.done.Add(1))
		if e.cfg.OnCheckpoint != nil {
			e.cpMu.Lock()
			e.cfg.OnCheckpoint(done, e.plan.Shards)
			e.cpMu.Unlock()
		}
		if len(cp.Skipped) > 0 {
			mu.Lock()
			skipped = append(skipped, cp.Skipped...)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: interrupted (journal is resumable): %w", err)
	}
	return skipped, nil
}

// runShard executes every cell of one shard serially and returns its
// checkpoint. When records is non-nil the assembled records are also
// written into their plan positions. Goldens must be prepared first.
func (e *engine) runShard(ctx context.Context, shard int, records []propane.Record) (checkpoint, error) {
	lo, hi := e.plan.ShardRange(shard)
	cp := checkpoint{Plan: e.plan.Hash, Shard: shard, Records: make([]recordJSON, 0, hi-lo)}
	for idx := lo; idx < hi; idx++ {
		rec, skip, err := e.runCell(ctx, idx)
		if err != nil {
			return checkpoint{}, err
		}
		if records != nil {
			records[idx] = rec
		}
		cp.Records = append(cp.Records, encodeRecord(rec))
		if skip != nil {
			cp.Skipped = append(cp.Skipped, *skip)
		}
	}
	return cp, nil
}

// runCell executes one cell of the injection space on the fork runner
// with retry, timeout and panic isolation. The returned error is only
// ever a context error: infrastructure failures degrade to a skip,
// injected-run crashes are data.
func (e *engine) runCell(ctx context.Context, idx int) (propane.Record, *SkippedCell, error) {
	j := e.plan.Jobs[idx]
	placeholder := propane.Record{
		TestCase:      e.tcs[j.TC].ID,
		Var:           e.plan.Module.Vars[j.Var].Name,
		Bit:           j.Bit,
		InjectionTime: j.Time,
	}
	if reason := e.goldenErr[j.TC]; reason != "" {
		return placeholder, e.skipCell(idx, j, 0, reason), nil
	}
	var runStart time.Time
	if e.metrics.Enabled() {
		runStart = time.Now()
	}
	out, attempts, err := e.attempt(ctx, func() (any, error) {
		return e.fork.RunJob(j.TC, e.tcs[j.TC], e.goldens[j.TC], j), nil
	})
	if ctx.Err() != nil {
		return placeholder, nil, ctx.Err()
	}
	if err != nil {
		return placeholder, e.skipCell(idx, j, attempts, err.Error()), nil
	}
	rec := out.(propane.Record)
	if e.metrics.Enabled() {
		e.metrics.Observe(rec, time.Since(runStart))
	}
	return rec, nil, nil
}

func (e *engine) skipCell(idx int, j propane.Job, attempts int, reason string) *SkippedCell {
	return &SkippedCell{
		Job:      idx,
		TC:       e.tcs[j.TC].ID,
		Var:      e.plan.Module.Vars[j.Var].Name,
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
func (e *engine) attempt(ctx context.Context, fn func() (any, error)) (out any, attempts int, err error) {
	backoff := e.cfg.backoff()
	maxRetries := e.cfg.MaxRetries
	if maxRetries < 0 {
		maxRetries = 0
	}
	for attempts = 1; ; attempts++ {
		out, err = e.watchdog(ctx, fn)
		if err == nil || ctx.Err() != nil {
			return out, attempts, err
		}
		if attempts > maxRetries {
			return nil, attempts, err
		}
		e.retries.Add(1)
		delay := backoff << uint(attempts-1)
		if max := backoff << 5; delay > max {
			delay = max
		}
		select {
		case <-time.After(delay):
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
func (e *engine) watchdog(ctx context.Context, fn func() (any, error)) (any, error) {
	safe := func() (out any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("campaign: engine panic: %v", r)
			}
		}()
		return fn()
	}
	if e.cfg.Timeout <= 0 {
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
	timer := time.NewTimer(e.cfg.Timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-timer.C:
		return nil, fmt.Errorf("campaign: run exceeded timeout %v", e.cfg.Timeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func sortSkipped(cells []SkippedCell) {
	sort.Slice(cells, func(i, k int) bool { return cells[i].Job < cells[k].Job })
}
