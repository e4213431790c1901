package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"

	"edem/internal/durable"
	"edem/internal/propane"
)

// Ledger is a campaign journal open for commits: the plan, the
// canonical checkpoint line of every committed shard, and a first-wins
// merge of checkpoints arriving from campaign.Run's executor or from
// any number of fabric workers. It is the only writer of the checkpoint
// log, and the authority the fabric protocol defers to — leases are
// advisory scheduling hints, the ledger's first-wins commit keyed by
// plan position is what makes duplicate completions harmless.
//
// The ledger keeps each committed shard's line in memory until it is
// sealed (881,642 bytes for MG-B1 at -scale 10 -stride 4), so sealing
// writes the canonical journal without reading the log back.
//
// All methods are safe for concurrent use.
type Ledger struct {
	plan *Plan
	dir  string
	// torn, invalid and reused are the bookkeeping of the open: torn
	// lines skipped, and the incremental diff (journaled shards dropped
	// vs carried over).
	torn, invalid, reused int

	mu  sync.Mutex
	jnl *durable.Log
	// lines[s] is shard s's canonical checkpoint line, nil until the
	// shard is committed; done counts the non-nil lines.
	lines  [][]byte
	done   int
	closed bool
}

// OpenLedger builds (or resumes) the journal for (target, spec) with
// the manifest, resume and incremental semantics campaign.Run uses,
// and returns the handle over it. cfg.Journal must be set: a ledger
// without a journal has nothing to merge into. A restored line that
// fails the ledger's check (another plan, a shard outside the plan, a
// record count other than the shard's range) is an error naming its
// shard.
func OpenLedger(target propane.Target, spec propane.Spec, cfg Config) (*Ledger, error) {
	l, _, err := openLedger(target, spec, cfg)
	return l, err
}

// openLedger is OpenLedger that also hands back the restored
// checkpoints, keyed by shard, for campaign.Run to decode. A fresh
// directory gets a manifest; an existing one is validated (hash match,
// Resume set) and its completed shards are loaded. Under
// Config.Incremental a hash mismatch triggers the per-section diff (see
// reconcile) instead of failing.
func openLedger(target propane.Target, spec propane.Spec, cfg Config) (*Ledger, map[int]checkpoint, error) {
	if cfg.Journal == "" {
		return nil, nil, fmt.Errorf("campaign: ledger requires a journal directory")
	}
	if cfg.Incremental && !cfg.Resume {
		return nil, nil, fmt.Errorf("campaign: Incremental requires Resume")
	}
	m, exists, err := readManifest(cfg.Journal)
	if err != nil {
		return nil, nil, err
	}
	l := &Ledger{dir: cfg.Journal}
	if !exists {
		if l.plan, err = NewPlan(target, spec, cfg.Shards); err != nil {
			return nil, nil, err
		}
		// The checkpoint log first, then the manifest, replaced
		// atomically, so a kill during creation leaves either no
		// manifest — no journal — or a complete one, never a torn
		// manifest. The manifest's directory fsync comes after both
		// files exist, so creation costs one; the log's own waits for
		// its first checkpoint (durable.OpenLog).
		if l.jnl, err = durable.OpenLog(filepath.Join(cfg.Journal, checkpointsName)); err != nil {
			return nil, nil, err
		}
		if err := writeManifest(cfg.Journal, newManifest(l.plan)); err != nil {
			l.jnl.Close()
			return nil, nil, err
		}
		l.lines = make([][]byte, l.plan.Shards)
		return l, nil, nil
	}
	if !cfg.Resume {
		return nil, nil, fmt.Errorf("%w: %s", ErrJournalExists, cfg.Journal)
	}
	// The manifest's shard count wins over cfg.Shards: shard boundaries
	// are part of the plan identity, and the journal was cut with these.
	if l.plan, err = NewPlan(target, spec, m.Shards); err != nil {
		return nil, nil, err
	}
	upgrade := m.Plan != l.plan.Hash
	var restored map[int]checkpoint
	foreign := 0
	switch {
	case !upgrade:
		// On the hash-match path, Incremental additionally tolerates
		// (and purges) stray lines of superseded plans: a kill between
		// the manifest and checkpoint rewrites of an incremental
		// upgrade leaves the new manifest over the old plan's lines.
		restored, l.torn, foreign, err = readCheckpoints(cfg.Journal, l.plan.Hash, cfg.Incremental)
		if cfg.Incremental {
			l.invalid, l.reused = foreign, len(restored)
		}
	case cfg.Incremental:
		restored, err = l.reconcile(target, spec, m)
	default:
		return nil, nil, fmt.Errorf("%w: journal %s has plan %.12s, current spec yields %.12s",
			ErrPlanMismatch, cfg.Journal, m.Plan, l.plan.Hash)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := l.restore(restored); err != nil {
		return nil, nil, err
	}
	// An upgrade replaces the manifest first and the log second (see
	// incremental.go for a kill between the two). Foreign lines are
	// compacted away now, since a later plain resume refuses them. A
	// torn tail needs no rewrite: reopening the log terminates the
	// fragment's line, so it stays one skipped line until sealing.
	if upgrade {
		if err := writeManifest(cfg.Journal, newManifest(l.plan)); err != nil {
			return nil, nil, err
		}
	}
	if upgrade || foreign > 0 {
		if err := l.writeLog(); err != nil {
			return nil, nil, err
		}
	}
	if l.jnl, err = durable.OpenLog(filepath.Join(cfg.Journal, checkpointsName)); err != nil {
		return nil, nil, err
	}
	return l, restored, nil
}

// restore admits the checkpoints read back from the journal, in shard
// order, through check, and keeps their canonical lines. Re-encoding
// drops fields the current format lacks, such as the per-shard fork
// statistics older binaries wrote.
func (l *Ledger) restore(restored map[int]checkpoint) error {
	shards := make([]int, 0, len(restored))
	for s := range restored {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	l.lines = make([][]byte, l.plan.Shards)
	for _, s := range shards {
		cp := restored[s]
		if err := l.plan.check(cp); err != nil {
			return fmt.Errorf("%w in journal %s", err, l.dir)
		}
		line, err := encodeCheckpointLine(cp)
		if err != nil {
			return err
		}
		l.lines[s] = line
	}
	l.done = len(shards)
	return nil
}

// check is the one test every checkpoint the ledger accepts passes,
// whether restored at open, committed by campaign.Run or uploaded by a
// fabric worker: it belongs to plan p, names one of p's shards, and
// holds one record per job of that shard's range.
func (p *Plan) check(cp checkpoint) error {
	if cp.Plan != p.Hash {
		return fmt.Errorf("%w: shard %d is a checkpoint of plan %.12s, not %.12s",
			ErrPlanMismatch, cp.Shard, cp.Plan, p.Hash)
	}
	if cp.Shard < 0 || cp.Shard >= p.Shards {
		return fmt.Errorf("campaign: shard %d out of range [0,%d)", cp.Shard, p.Shards)
	}
	if lo, hi := p.ShardRange(cp.Shard); len(cp.Records) != hi-lo {
		return fmt.Errorf("campaign: shard %d has %d records, want %d", cp.Shard, len(cp.Records), hi-lo)
	}
	return nil
}

// Plan returns the ledger's resolved plan.
func (l *Ledger) Plan() *Plan { return l.plan }

// TornTails, Invalidated and Reused report the resume bookkeeping of
// the journal the ledger opened, the way campaign.Result's TornTails,
// ShardsInvalidated and ShardsReused do.
func (l *Ledger) TornTails() int   { return l.torn }
func (l *Ledger) Invalidated() int { return l.invalid }
func (l *Ledger) Reused() int      { return l.reused }

// Pending returns the shards not yet committed, ascending.
func (l *Ledger) Pending() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int
	for s, line := range l.lines {
		if line == nil {
			out = append(out, s)
		}
	}
	return out
}

// Committed reports whether shard is committed.
func (l *Ledger) Committed(shard int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return shard >= 0 && shard < len(l.lines) && l.lines[shard] != nil
}

// DoneCount returns how many shards are committed.
func (l *Ledger) DoneCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done
}

// Complete reports whether every shard is committed.
func (l *Ledger) Complete() bool {
	return l.DoneCount() == l.plan.Shards
}

// Commit decodes one checkpoint line, a fabric worker's upload, and
// commits it (see commit). It returns the shard the line names.
func (l *Ledger) Commit(line []byte) (shard int, accepted bool, err error) {
	var cp checkpoint
	if err := json.Unmarshal(line, &cp); err != nil {
		return 0, false, fmt.Errorf("campaign: ledger: undecodable checkpoint: %w", err)
	}
	accepted, err = l.commit(cp)
	return cp.Shard, accepted, err
}

// commit is the one step by which a checkpoint reaches the journal. The
// checkpoint must pass check; it is encoded canonically, so journal
// bytes never depend on which machine executed the shard; and it merges
// first-wins: the first commit of a shard is appended and its line
// kept, a later one is a duplicate (accepted=false, no error —
// work-stealing makes duplicates normal, and duplicate shards are
// identical by construction, so dropping them loses nothing).
func (l *Ledger) commit(cp checkpoint) (accepted bool, err error) {
	if err := l.plan.check(cp); err != nil {
		return false, err
	}
	line, err := encodeCheckpointLine(cp)
	if err != nil {
		return false, err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false, fmt.Errorf("campaign: ledger is closed")
	}
	if l.lines[cp.Shard] != nil {
		return false, nil
	}
	if err := l.jnl.Append(line); err != nil {
		return false, fmt.Errorf("campaign: ledger: append shard %d: %w", cp.Shard, err)
	}
	l.lines[cp.Shard] = line
	l.done++
	return true, nil
}

// Seal writes the completed journal in its canonical form — one line
// per shard, in ascending shard order, duplicates (work-stealing races)
// and torn tails dropped — from the lines the ledger holds, and closes
// the ledger. Sealing is what makes completed journals comparable
// byte-for-byte across front ends: a local run, a resumed run and a
// multi-worker fabric run of the same plan all seal to identical bytes.
// Sealing an incomplete ledger is an error; Close instead leaves a
// resumable journal behind.
func (l *Ledger) Seal() error {
	if missing := l.plan.Shards - l.DoneCount(); missing > 0 {
		return fmt.Errorf("campaign: ledger: cannot seal with %d shards missing", missing)
	}
	// Once closed the ledger commits nothing more, so lines is final.
	if err := l.Close(); err != nil {
		return err
	}
	return l.writeLog()
}

// writeLog atomically replaces the checkpoint log with the committed
// lines in ascending shard order.
func (l *Ledger) writeLog() error {
	buf := bytes.Join(l.lines, nil)
	return durable.WriteFile(filepath.Join(l.dir, checkpointsName), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// Close releases the journal file handle, leaving the journal resumable.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.jnl.Close()
}
