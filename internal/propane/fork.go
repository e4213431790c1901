// Golden-state forking and benign-convergence memoization — the
// campaign execution engine (after ZOFI's fork-from-snapshot and
// FastFlip's memoized verdicts).
//
// The slow path executes every cell of the injection space from
// iteration zero, re-running the fault-free prefix before the injection
// point once per cell. Forking factors that prefix out: a Forkable
// target captures the complete pre-injection execution state once per
// (test case, injection time) column, and every bit-flip cell of that
// column resumes from a clone of the snapshot. On top of that, cells
// whose post-injection state re-converges with the golden trajectory
// (or matches a previously memoized post-injection state) terminate
// early with the golden (or memoized) verdict instead of running to
// completion. Cells the fast path cannot take fall back to the slow
// path, counted.
//
// Bit-identity with the slow path rests on one invariant: State
// captures the COMPLETE resumable execution state, so equal digests at
// the same step imply identical remaining execution and therefore an
// identical final outcome. Early termination is additionally gated on
// the probe having sampled, so Record.State is always the cell's own
// post-injection sample, never inferred.
package propane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"edem/internal/telemetry"
)

// Digest is a 128-bit fingerprint of a State: two independent
// multiply-xorshift streams over the same word encoding. 64 bits would
// make campaign-scale collisions (which would silently mislabel a
// record) merely unlikely; 128 bits makes them negligible.
type Digest [2]uint64

// StateHasher accumulates a Digest over state fields. Targets feed
// every field of their resumable state — position counters, module
// variables, accumulated outputs — through one hasher in a fixed order.
// The zero value is NOT ready; use NewStateHasher.
//
// The streams mix one 64-bit word per round (a xor, a multiply and an
// xorshift each) rather than one byte, because states routinely carry
// multi-kilobyte codec windows and the digest sits on the convergence
// hot path. For a fixed stream value each round is a bijection of the
// incoming word, so states differing in a single word never collide.
type StateHasher struct {
	a, b uint64
}

const (
	hashBasisA = 14695981039346656037
	hashBasisB = 0x9e3779b97f4a7c15
	hashMulA   = 0xff51afd7ed558ccd
	hashMulB   = 0xc2b2ae3d27d4eb4f
)

// NewStateHasher returns a hasher with both streams at their offset
// basis.
func NewStateHasher() StateHasher {
	return StateHasher{a: hashBasisA, b: hashBasisB}
}

// Uint64 folds one 64-bit word into both streams.
func (h *StateHasher) Uint64(v uint64) {
	x := (h.a ^ v) * hashMulA
	h.a = x ^ (x >> 29)
	y := (h.b ^ v) * hashMulB
	h.b = y ^ (y >> 31)
}

// Int64 folds one int64.
func (h *StateHasher) Int64(v int64) { h.Uint64(uint64(v)) }

// Int folds one int.
func (h *StateHasher) Int(v int) { h.Uint64(uint64(int64(v))) }

// Float64 folds one float64 by IEEE-754 bit pattern, so NaN payloads
// and signed zeros — which corrupted runs legitimately produce —
// distinguish states exactly.
func (h *StateHasher) Float64(v float64) { h.Uint64(math.Float64bits(v)) }

// Bool folds one bool.
func (h *StateHasher) Bool(v bool) {
	if v {
		h.Uint64(1)
	} else {
		h.Uint64(0)
	}
}

// Bytes folds a length-prefixed byte slice, so adjacent variable-length
// fields cannot alias each other's encodings. Full 8-byte words are
// folded directly; the tail is zero-padded, which cannot alias because
// the length prefix already separates inputs of different sizes.
func (h *StateHasher) Bytes(p []byte) {
	h.Uint64(uint64(len(p)))
	for len(p) >= 8 {
		h.Uint64(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	if len(p) > 0 {
		var tail [8]byte
		copy(tail[:], p)
		h.Uint64(binary.LittleEndian.Uint64(tail[:]))
	}
}

// Sum returns the accumulated digest.
func (h *StateHasher) Sum() Digest { return Digest{h.a, h.b} }

// State is a snapshot of a Forkable target's mid-run execution state.
// It must capture everything that determines the remainder of the run —
// loop positions, module variables, codec/simulation internals AND
// accumulated outputs (or rolling digests of them) — because the
// convergence argument is "equal State ⇒ identical remaining execution
// ⇒ identical outcome".
type State interface {
	// Clone returns an independent deep copy: mutating the clone (or
	// running a target from it) must not affect the original. Read-only
	// workload data (input files, tracks) may be shared.
	Clone() State
	// Digest fingerprints the complete state.
	Digest() Digest
}

// ErrConverged is returned by Forkable.RunFrom when the engine's
// RunControl asked the run to stop. It signals early termination, not a
// target failure.
var ErrConverged = errors.New("propane: run stopped by convergence control")

// RunControl lets the engine observe a resumed run at step boundaries.
type RunControl struct {
	// Check is consulted at the end of every completed step (one
	// iteration, track or file) with the 1-based step count since the
	// resume point and the live state. Returning true asks the target
	// to stop and return ErrConverged. The state is live: Check must
	// not retain or mutate it.
	Check func(step int, st State) bool
}

// Checkpoint is the nil-safe helper targets call at each step boundary:
//
//	if ctl.Checkpoint(step, st) { return nil, propane.ErrConverged }
func (c *RunControl) Checkpoint(step int, st State) bool {
	if c == nil || c.Check == nil {
		return false
	}
	return c.Check(step, st)
}

// Forkable is the optional fast-path contract of a Target. A target
// that implements it can snapshot the fault-free prefix of a run once
// and resume many injected runs from clones of that snapshot.
type Forkable interface {
	Target
	// Snapshot runs the fault-free prefix of tc up to (but not
	// including) the activation-th visit of (module, at) and returns
	// the positioned state. ok=false (with nil error) means the
	// position is unreachable or unsupported — callers fall back to the
	// slow path. The returned State is owned by the caller.
	Snapshot(tc TestCase, module string, at Location, activation int) (st State, ok bool, err error)
	// RunFrom resumes execution from st (which it consumes/mutates),
	// issuing probe visits exactly as the equivalent tail of Run would,
	// and consulting ctl at step boundaries. It returns ErrConverged
	// when ctl stopped the run.
	RunFrom(st State, probe Probe, ctl *RunControl) (any, error)
}

// nextCheckStep is the convergence-comparison backoff schedule: dense
// right after the injection (steps 1-4, where most transient flips are
// overwritten or masked), then geometric (×1.5), so a divergent run
// pays O(log n) digest computations instead of one per step.
func nextCheckStep(s int) int {
	if s < 4 {
		return s + 1
	}
	return s + s/2
}

// ForkStats counts fast-path events. Snapshots counts golden columns
// captured; Forked counts cells executed from a snapshot; Converged and
// MemoHits count early terminations; Fallbacks counts cells that ran on
// the slow path (a target that is not Forkable, a persistent fault
// model, an unreachable position, or a golden fork that failed
// verification).
type ForkStats struct {
	Snapshots int64
	Forked    int64
	Converged int64
	MemoHits  int64
	Fallbacks int64
}

// ForkRunner is the campaign execution engine for injection cells. It
// forks every cell it can from a cached golden column per (test case,
// injection time) — the snapshot, the golden trajectory's digest trail
// and the golden output — with a per-column memo of post-injection
// verdicts, and runs the rest on the slow path (RunJob), counting each
// such fallback. Safe for concurrent use.
type ForkRunner struct {
	target Target
	ft     Forkable // nil when target does not implement Forkable
	spec   Spec
	mod    ModuleInfo

	snapshots atomic.Int64
	forked    atomic.Int64
	converged atomic.Int64
	memoHits  atomic.Int64
	fallbacks atomic.Int64

	mu   sync.Mutex
	cols map[colKey]*forkColumn
}

type colKey struct {
	tc   int // index into the generated test-case list
	time int // injection activation
}

type verdict struct {
	failure, crashed bool
}

// forkColumn is the cached golden context of one (test case, injection
// time) column.
type forkColumn struct {
	once sync.Once
	ok   bool
	base State
	// trail maps scheduled step numbers to the golden trajectory's
	// digests at those steps.
	trail     map[int]Digest
	goldenOut any

	memoMu sync.Mutex
	memo   map[Digest]verdict
}

func (c *forkColumn) memoGet(d Digest) (verdict, bool) {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	v, ok := c.memo[d]
	return v, ok
}

func (c *forkColumn) memoPut(d Digest, v verdict) {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if _, ok := c.memo[d]; !ok {
		c.memo[d] = v
	}
}

// NewForkRunner builds the cell runner for one campaign. spec and mod
// must be the validated spec and resolved module the campaign runs.
// Golden columns are built lazily, on a column's first cell.
func NewForkRunner(target Target, spec Spec, mod ModuleInfo) *ForkRunner {
	ft, _ := target.(Forkable)
	return &ForkRunner{target: target, ft: ft, spec: spec, mod: mod, cols: make(map[colKey]*forkColumn)}
}

// Stats returns a snapshot of the fast-path counters.
func (f *ForkRunner) Stats() ForkStats {
	return ForkStats{
		Snapshots: f.snapshots.Load(),
		Forked:    f.forked.Load(),
		Converged: f.converged.Load(),
		MemoHits:  f.memoHits.Load(),
		Fallbacks: f.fallbacks.Load(),
	}
}

// Report publishes the fast-path counters to reg as campaign.fork_*.
func (f *ForkRunner) Report(reg *telemetry.Registry) {
	st := f.Stats()
	reg.Counter("campaign.fork_snapshots").Add(st.Snapshots)
	reg.Counter("campaign.fork_cells").Add(st.Forked)
	reg.Counter("campaign.fork_converged").Add(st.Converged)
	reg.Counter("campaign.fork_memo_hits").Add(st.MemoHits)
	reg.Counter("campaign.fork_fallbacks").Add(st.Fallbacks)
}

// column returns (building on first use) the golden column for the
// test case at index tcIdx and injection time t. Concurrent callers of
// the same column block on one build.
func (f *ForkRunner) column(tcIdx int, tc TestCase, golden any, t int) *forkColumn {
	key := colKey{tc: tcIdx, time: t}
	f.mu.Lock()
	col, ok := f.cols[key]
	if !ok {
		col = &forkColumn{}
		f.cols[key] = col
	}
	f.mu.Unlock()

	col.once.Do(func() {
		base, ok, err := f.ft.Snapshot(tc, f.spec.Module, f.spec.InjectAt, t)
		if err != nil || !ok || base == nil {
			return // col.ok stays false: every cell of this column falls back
		}
		// Golden fork: replay the remainder fault-free, recording the
		// digest trail at the comparison schedule.
		trail := make(map[int]Digest)
		next := 1
		ctl := &RunControl{Check: func(step int, st State) bool {
			if step == next {
				trail[step] = st.Digest()
				next = nextCheckStep(step)
			}
			return false
		}}
		out, err := runFromSafely(f.ft, base.Clone(), NopProbe{}, ctl)
		if err != nil {
			return
		}
		// Self-check: the golden fork must reproduce the golden verdict.
		// If it does not, the target's Snapshot/RunFrom decomposition is
		// unsound for this column — refuse the fast path rather than
		// risk mislabelled records.
		if f.target.Failed(tc, golden, out) {
			return
		}
		col.base = base
		col.trail = trail
		col.goldenOut = out
		col.memo = make(map[Digest]verdict)
		col.ok = true
		f.snapshots.Add(1)
	})
	return col
}

// RunJob executes one cell and classifies its outcome, bit-identically
// to the slow path RunJob: forked from its column's golden snapshot
// when the fast path applies, otherwise on the slow path, counted as a
// fallback. tcIdx, tc and golden must correspond to j.TC.
func (f *ForkRunner) RunJob(tcIdx int, tc TestCase, golden any, j Job) Record {
	if rec, ok := f.runForked(tcIdx, tc, golden, j); ok {
		return rec
	}
	f.fallbacks.Add(1)
	return RunJob(f.target, f.spec, f.mod, tc, golden, j)
}

// runForked executes one cell on the fast path; ok=false means the fast
// path does not apply and the record is meaningless.
func (f *ForkRunner) runForked(tcIdx int, tc TestCase, golden any, j Job) (Record, bool) {
	// Persistent fault models (stuck-at, intermittent) break the fast
	// path's soundness argument: convergence and memoization both rest
	// on "equal complete state ⇒ identical remaining execution", but a
	// persistent probe carries future re-assertions that no target
	// snapshot captures — two runs in equal states can still diverge
	// when the fault re-asserts. Refuse the whole cell up front.
	if f.ft == nil || f.spec.Fault.Persistent() {
		return Record{}, false
	}
	col := f.column(tcIdx, tc, golden, j.Time)
	if !col.ok {
		return Record{}, false
	}

	// The resumed visit stream starts exactly at the trigger visit, so
	// the probe fires on its first activation.
	probe := newInjectProbe(f.spec, f.mod.Vars[j.Var].Name, j.Bit, 1)

	var (
		memoV   *verdict
		next    = 1
		d1      Digest
		haveD1  bool
		matched bool
	)
	ctl := &RunControl{Check: func(step int, st State) bool {
		if step != next {
			return false
		}
		next = nextCheckStep(step)
		// Never stop before the cell's own post-injection sample is
		// taken: Record.State must come from this run, not be inferred.
		if !probe.sampled {
			return false
		}
		d := st.Digest()
		if step == 1 {
			d1, haveD1 = d, true
			if v, ok := col.memoGet(d); ok {
				memoV = &v
				return true
			}
		}
		if g, ok := col.trail[step]; ok && g == d {
			matched = true
			return true
		}
		return false
	}}

	out, err := runFromSafely(f.ft, col.base.Clone(), probe, ctl)
	f.forked.Add(1)

	rec := probe.record(tc.ID, j.Time)
	switch {
	case errors.Is(err, ErrConverged) && memoV != nil:
		// An earlier cell of this column reached the same complete
		// post-injection state at step 1, so the remainder — and the
		// verdict — are identical by determinism.
		rec.Failure, rec.Crashed = memoV.failure, memoV.crashed
		f.memoHits.Add(1)
	case errors.Is(err, ErrConverged) && matched:
		// Re-converged with the golden trajectory: the remainder equals
		// the golden remainder, so the outcome equals the golden output
		// and the slow path's Failed call reduces to this one.
		rec.Failure = f.target.Failed(tc, golden, col.goldenOut)
		f.converged.Add(1)
		if haveD1 {
			col.memoPut(d1, verdict{failure: rec.Failure, crashed: false})
		}
	case err != nil:
		rec.Crashed = true
		rec.Failure = probe.injected
		if haveD1 {
			col.memoPut(d1, verdict{failure: rec.Failure, crashed: true})
		}
	default:
		if probe.injected {
			rec.Failure = f.target.Failed(tc, golden, out)
		}
		if haveD1 {
			col.memoPut(d1, verdict{failure: rec.Failure, crashed: false})
		}
	}
	return rec, true
}

// runFromSafely mirrors runSafely for resumed runs: target panics
// (legitimately provoked by corrupted values) become errors.
func runFromSafely(t Forkable, st State, probe Probe, ctl *RunControl) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("propane: target panicked: %v", r)
		}
	}()
	return t.RunFrom(st, probe, ctl)
}
