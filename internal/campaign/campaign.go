// Package campaign is the fault-tolerant execution engine for Step 1 of
// the paper's methodology: it turns a fault-injection spec into a
// deterministic sharded work plan (Plan), executes the shards on the
// shared internal/parallel scheduler with per-run timeouts, bounded
// retry with exponential backoff and panic/hang isolation (Executor),
// and commits each completed shard to an append-only journal (Ledger)
// so a killed campaign resumes from its last checkpoint instead of
// starting over.
//
// Run is built from the same two objects the fabric uses across HTTP:
// it opens a Ledger, runs the pending shards on an Executor, commits
// each through the ledger and seals it. The ledger is the only writer
// of the checkpoint log, and every checkpoint it accepts — restored at
// open, committed by Run, or uploaded by a fabric worker — passes the
// same check and the same canonical encoder, so a journaled shard
// means the same thing whichever front end wrote it.
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
// owned by one Run (or one fabric coordinator) at a time (the ledger
// does not lock the directory). The returned Result and Campaign are
// owned by the caller and immutable thereafter. Internally, shard
// workers share only the ledger (mutex-guarded), atomic counters and
// disjoint slices of the records array.
package campaign

import (
	"context"
	"fmt"
	"sort"
	"time"

	"edem/internal/propane"
	"edem/internal/telemetry"
)

// Config tunes the engine. The zero value runs in memory with
// auto-sized shards, no per-run watchdog and no retries: a run that
// panics is skipped and recorded on its first failure, and a run that
// hangs hangs the campaign. Set Timeout and MaxRetries to add both.
//
// Journal, Resume and Incremental configure the ledger (OpenLedger, or
// the one Run opens), Shards the plan, Timeout and MaxRetries the
// executor; OnCheckpoint is Run's alone.
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
	// one before the cell is skipped; <= 0 means none. Retry n waits
	// retryDelay(n).
	MaxRetries int
	// OnCheckpoint, when non-nil, is called after every shard
	// checkpoint with the number of completed shards (including
	// restored ones) and the total. Calls are serialised but may come
	// from any worker goroutine.
	OnCheckpoint func(done, total int)
}

// retryBackoff is the wait before a cell's first retry; each later
// retry doubles it, up to 32 times retryBackoff.
const retryBackoff = 50 * time.Millisecond

// retryDelay returns the wait before retry number attempt (1-based):
// 50 ms doubling to 1.6 s from the sixth retry on. The exponent is
// capped before the shift, so no retry count overflows the delay.
func retryDelay(attempt int) time.Duration {
	return retryBackoff << min(attempt-1, 5)
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
// With cfg.Journal set, Run opens a Ledger over the journal, decodes
// the shards it restored, runs the rest on an Executor, commits each
// shard as it completes and seals the journal. Without one it runs
// every shard and commits nothing.
//
// The run is recorded as a "campaign" telemetry phase. On top of the
// per-run campaign.* counters shared with propane.Run it reports
// campaign.shards_run, campaign.shards_restored, campaign.retries and
// campaign.cells_skipped, which is how resume savings and degraded
// cells show up in a metrics snapshot.
func Run(ctx context.Context, target propane.Target, spec propane.Spec, cfg Config) (*Result, error) {
	ctx, span := telemetry.StartSpan(ctx, "campaign")
	defer span.End()

	var (
		plan     *Plan
		ledger   *Ledger
		restored map[int]checkpoint
		err      error
	)
	if cfg.Journal == "" {
		plan, err = NewPlan(target, spec, cfg.Shards)
	} else {
		ledger, restored, err = openLedger(target, spec, cfg)
	}
	if err != nil {
		return nil, err
	}
	if ledger != nil {
		defer ledger.Close()
		plan = ledger.plan
	}

	x := newExecutor(ctx, target, plan, cfg)
	records := make([]propane.Record, len(plan.Jobs))
	var skipped []SkippedCell
	for shard, cp := range restored {
		lo, _ := plan.ShardRange(shard)
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
		if err := x.prepareGoldens(ctx); err != nil {
			return nil, err
		}
		fresh, err := x.runShards(ctx, ledger, pending, len(restored), records)
		if err != nil {
			return nil, err
		}
		skipped = append(skipped, fresh...)
		x.fork.Report(x.reg)
		forkStats = x.fork.Stats()
	}

	varNames := make([]string, len(plan.Module.Vars))
	for i, v := range plan.Module.Vars {
		varNames[i] = v.Name
	}
	sortSkipped(skipped)
	res := &Result{
		Campaign:       propane.NewCampaign(spec, plan.Target, varNames, records),
		PlanHash:       plan.Hash,
		Shards:         plan.Shards,
		ShardsRestored: len(restored),
		ShardsRun:      len(pending),
		Retries:        int(x.retries.Load()),
		Skipped:        skipped,
		Fork:           forkStats,
	}
	if ledger != nil {
		if err := ledger.Seal(); err != nil {
			return nil, fmt.Errorf("campaign: seal journal: %w", err)
		}
		res.TornTails, res.ShardsInvalidated, res.ShardsReused = ledger.TornTails(), ledger.Invalidated(), ledger.Reused()
	}

	reg := x.reg
	reg.Counter("campaign.shards_restored").Add(int64(res.ShardsRestored))
	reg.Counter("campaign.shards_run").Add(int64(res.ShardsRun))
	reg.Counter("campaign.retries").Add(int64(res.Retries))
	reg.Counter("campaign.cells_skipped").Add(int64(len(skipped)))
	reg.Counter("campaign.torn_tails").Add(int64(res.TornTails))
	reg.Counter("campaign.shards_invalidated").Add(int64(res.ShardsInvalidated))
	reg.Counter("campaign.shards_reused").Add(int64(res.ShardsReused))
	return res, nil
}

func sortSkipped(cells []SkippedCell) {
	sort.Slice(cells, func(i, k int) bool { return cells[i].Job < cells[k].Job })
}
