package campaign

// Incremental resume (Config.Incremental): when the journal's manifest
// records a different plan hash than the current (target, spec), diff
// the two plans section by section instead of refusing the journal.
//
// A section is one test case's contiguous job range with a content
// sub-hash covering everything that determines its records (plan.go).
// A journaled shard survives the upgrade exactly when
//
//  1. its job range under the new plan is identical to its range under
//     the journaled plan (same lo, same hi), and
//  2. every section overlapping that range kept the same (lo, hi, hash)
//     triple.
//
// Condition 1 is kept common by deriving the new shard count from the
// journaled shard *size* (ceil(newJobs/oldSize)) rather than reusing the
// old shard count: when the job count grows — e.g. test cases appended —
// boundaries of the unchanged prefix stay aligned and only the tail is
// new. Condition 2 is what FastFlip-style invalidation buys: editing one
// test case flips one section sub-hash and invalidates only the shards
// overlapping it.
//
// The upgrade rewrites the journal under the new plan: new manifest
// first (atomic rename), then a compacted checkpoint log holding the
// surviving shards re-tagged with the new plan hash. A kill between the
// two renames leaves the new manifest over old-plan lines; the next
// incremental resume hash-matches the manifest and purges the stale
// lines as foreign (readCheckpoints dropForeign), re-running their
// shards. That loses work but never correctness — first-wins dedup and
// bit-identity are keyed by plan position, and no line ever carries the
// wrong plan hash for its contents.

import (
	"edem/internal/propane"
)

// prepareIncremental handles the hash-mismatch branch of preparePlan:
// rebuild the plan with boundary-aligned shards, diff sections against
// the manifest, keep the still-valid shards and rewrite the journal
// under the new plan.
func prepareIncremental(target propane.Target, spec propane.Spec, cfg Config, m manifest) (*prepState, error) {
	// Derive the new shard count from the journaled shard size so
	// unchanged-prefix shards keep identical job ranges (condition 1).
	plan, err := NewPlan(target, spec, m.Shards)
	if err != nil {
		return nil, err
	}
	if oldSize := (m.Jobs + m.Shards - 1) / m.Shards; oldSize > 0 {
		if shards := (len(plan.Jobs) + oldSize - 1) / oldSize; shards != plan.Shards {
			plan, err = NewPlan(target, spec, shards)
			if err != nil {
				return nil, err
			}
		}
	}

	restored, torn, invalidated, reused, err := reconcileIncremental(cfg.Journal, m, plan)
	if err != nil {
		return nil, err
	}
	jnl, err := openCheckpoints(cfg.Journal)
	if err != nil {
		return nil, err
	}
	return &prepState{
		plan:        plan,
		restored:    restored,
		jnl:         jnl,
		torn:        torn,
		invalidated: invalidated,
		reused:      reused,
	}, nil
}

// reconcileIncremental loads the journaled shards of the superseded
// plan, keeps those whose ranges and overlapping sections are unchanged
// under plan, and rewrites the journal (manifest, then checkpoint log)
// under the new plan. The kept checkpoints are returned re-tagged with
// the new plan hash, ready to restore.
func reconcileIncremental(dir string, m manifest, plan *Plan) (restored map[int]checkpoint, torn, invalidated, reused int, err error) {
	old, torn, foreign, err := readCheckpoints(dir, m.Plan, true)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	invalidated = foreign // stray lines of even older plans re-run too

	valid := validSections(m.Sections, plan.Sections)
	restored = make(map[int]checkpoint, len(old))
	for s, cp := range old {
		if !shardReusable(s, m, plan, valid) {
			invalidated++
			continue
		}
		cp.Plan = plan.Hash
		restored[s] = cp
		reused++
	}

	// Manifest first: after this rename the directory claims the new
	// plan, and any old-plan lines still in the log are recognisably
	// foreign (see the file comment for the kill-between-renames story).
	if err := writeManifest(dir, newManifest(plan)); err != nil {
		return nil, 0, 0, 0, err
	}
	if err := writeCheckpointLog(dir, restored); err != nil {
		return nil, 0, 0, 0, err
	}
	return restored, torn, invalidated, reused, nil
}

// validSections indexes, by test-case index, the journaled sections
// that are unchanged in the new plan: same job range, same content
// sub-hash.
func validSections(old []manifestSection, cur []Section) map[int]bool {
	byTC := make(map[int]Section, len(cur))
	for _, s := range cur {
		byTC[s.TC] = s
	}
	valid := make(map[int]bool, len(old))
	for _, o := range old {
		if s, ok := byTC[o.TC]; ok && s.Lo == o.Lo && s.Hi == o.Hi && s.Hash == o.Hash {
			valid[o.TC] = true
		}
	}
	return valid
}

// shardReusable reports whether journaled shard s of plan m restores
// unchanged into plan: identical job range, and every overlapping
// section valid.
func shardReusable(s int, m manifest, plan *Plan, valid map[int]bool) bool {
	if s >= plan.Shards {
		return false
	}
	oldLo, oldHi := shardRange(m.Jobs, m.Shards, s)
	lo, hi := plan.ShardRange(s)
	if lo != oldLo || hi != oldHi || lo == hi {
		return false
	}
	for _, sec := range plan.Sections {
		if sec.Lo < hi && lo < sec.Hi && !valid[sec.TC] {
			return false
		}
	}
	return true
}
