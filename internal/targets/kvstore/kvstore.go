// Package kvstore implements an in-memory replicated key-value store
// target: one primary and two replicas connected by log-shipping
// replication, serving quorum reads while a deterministic request
// workload streams writes through the primary. It is the suite's first
// server-shaped target — the injected state is request-serving state
// (replication lag, shipped log entries, quorum votes), not
// batch-pipeline state.
//
// Two modules are instrumented. Replicate is the log-shipping applier:
// its variables are the log sequence being assigned, the operation
// being applied and the per-replica shipping lags, so an injected fault
// corrupts what gets written, where it gets written or how far each
// replica advances. Quorum is the read path: its variables are the
// requested key, both gathered votes with their sequence numbers and
// the resolved winner, so a fault corrupts what a client read returns.
// Every few requests a sync barrier forces full catch-up and compares
// the three stores key by key — the replication invariant.
//
// The failure specification is replication-invariant violation against
// a golden run: divergent replica state after a barrier, a stale or
// wrong quorum read, or a lost acknowledged write (every primary apply
// is acknowledged into the outcome digest, and the final barrier folds
// the complete store contents, so an acknowledged write that is missing
// at the end changes the outcome).
//
// Role in the methodology: a Step 1 target system (fault injection
// analysis). Its campaigns produce the KV-* datasets mined into error
// detectors in Steps 2-4, demonstrating the pipeline on request-serving
// state. Like every target, System is a stateless value whose Run
// builds all mutable state per call, so campaign workers share one
// System across concurrent runs; it implements propane.Forkable for the
// golden-state forking fast path.
package kvstore

import (
	"fmt"

	"edem/internal/propane"
)

// Module names (dataset IDs KV-A* and KV-B*).
const (
	ModuleReplicate = "Replicate"
	ModuleQuorum    = "Quorum"
)

// System is the replicated KV store target. The zero value selects the
// documented defaults.
type System struct {
	// Keys is the key-space size (default 16).
	Keys int
	// Requests is the number of client requests per test case (default
	// 24). Each request performs one write (put or delete) through the
	// primary and one quorum read.
	Requests int
}

func (s System) keys() int {
	if s.Keys <= 0 {
		return 16
	}
	return s.Keys
}

func (s System) requests() int {
	if s.Requests <= 0 {
		return 24
	}
	return s.Requests
}

// syncEvery is the barrier cadence: after every syncEvery-th request
// the replicas are forced to full catch-up and the three stores are
// compared key by key.
const syncEvery = 6

// Name implements propane.Target.
func (System) Name() string { return "KVStore" }

// Modules implements propane.Target.
func (System) Modules() []propane.ModuleInfo {
	return []propane.ModuleInfo{
		{Name: ModuleReplicate, Vars: (&replicate{}).decls()},
		{Name: ModuleQuorum, Vars: (&quorum{}).decls()},
	}
}

// TestCases implements propane.Target: n deterministic workloads.
func (s System) TestCases(n int, seed uint64) []propane.TestCase {
	tcs := make([]propane.TestCase, n)
	for i := range tcs {
		tcs[i] = propane.TestCase{
			ID:   i,
			Seed: seed ^ (uint64(i+1) * 0xd1342543de82ef95),
			Params: map[string]float64{
				"keys":     float64(s.keys()),
				"requests": float64(s.requests()),
			},
		}
	}
	return tcs
}

// Outcome is the observable result of one run: the rolling digest of
// every acknowledged write, every quorum read and the final store
// contents, plus the replication-invariant counters.
type Outcome struct {
	Digest      uint64
	Divergences int32
	StaleReads  int32
}

// Failed implements propane.Target: any deviation from the golden
// outcome — a different read or ack stream, divergent replicas, a
// changed staleness profile — violates the failure specification.
func (System) Failed(_ propane.TestCase, golden, observed any) bool {
	g, ok1 := golden.(Outcome)
	o, ok2 := observed.(Outcome)
	if !ok1 || !ok2 {
		return true
	}
	return g != o
}

// replicate is the log-shipping module state: the variables live across
// the Entry visit (which corrupts what the primary is about to apply)
// and the Exit visit (which corrupts what ships to the replicas and
// what gets acknowledged).
type replicate struct {
	logSeq int64  // sequence number assigned to this request's op
	opKey  int64  // key being written
	opVal  uint64 // value being written (puts)
	opDel  bool   // whether the op is a delete
	lag1   int64  // replica 1 shipping lag, in log entries
	lag2   int64  // replica 2 shipping lag, in log entries
}

func (r *replicate) decls() []propane.VarDecl {
	refs := r.varRefs()
	decls := make([]propane.VarDecl, len(refs))
	for i, ref := range refs {
		decls[i] = propane.VarDecl{Name: ref.Name, Kind: ref.Kind}
	}
	return decls
}

func (r *replicate) varRefs() []propane.VarRef {
	return []propane.VarRef{
		propane.Int64Ref("logSeq", &r.logSeq),
		propane.Int64Ref("opKey", &r.opKey),
		propane.Uint64Ref("opVal", &r.opVal),
		propane.BoolRef("opDel", &r.opDel),
		propane.Int64Ref("lag1", &r.lag1),
		propane.Int64Ref("lag2", &r.lag2),
	}
}

// quorum is the read-path module state: the requested key, the two
// gathered votes and the resolved winner. stale accumulates across the
// whole run.
type quorum struct {
	readKey int64   // key the client asked for
	voteA   uint64  // primary's vote (value)
	voteB   uint64  // polled replica's vote (value)
	seqA    int64   // primary's vote sequence
	seqB    int64   // replica's vote sequence
	winVal  uint64  // resolved winner value
	winSeq  int64   // resolved winner sequence
	stale   int32   // runs of stale replica votes observed so far
	load    float64 // fraction of the key space present on the primary
	present bool    // whether the primary holds the requested key
}

func (q *quorum) decls() []propane.VarDecl {
	refs := q.varRefs()
	decls := make([]propane.VarDecl, len(refs))
	for i, ref := range refs {
		decls[i] = propane.VarDecl{Name: ref.Name, Kind: ref.Kind}
	}
	return decls
}

func (q *quorum) varRefs() []propane.VarRef {
	return []propane.VarRef{
		propane.Int64Ref("readKey", &q.readKey),
		propane.Uint64Ref("voteA", &q.voteA),
		propane.Uint64Ref("voteB", &q.voteB),
		propane.Int64Ref("seqA", &q.seqA),
		propane.Int64Ref("seqB", &q.seqB),
		propane.Uint64Ref("winVal", &q.winVal),
		propane.Int64Ref("winSeq", &q.winSeq),
		propane.Int32Ref("stale", &q.stale),
		propane.Float64Ref("load", &q.load),
		propane.BoolRef("present", &q.present),
	}
}

// op is one replication log entry.
type op struct {
	seq uint64
	key int
	val uint64
	del bool
}

// node is one store replica. Key space is bounded by maxKeys so nodes
// copy by value in Clone.
type node struct {
	val     [maxKeys]uint64
	seq     [maxKeys]uint64
	present [maxKeys]bool
}

// maxKeys bounds the configurable key space so node is a fixed-size
// value type.
const maxKeys = 64

func (n *node) apply(e op) {
	if e.del {
		n.present[e.key] = false
		n.val[e.key] = 0
	} else {
		n.present[e.key] = true
		n.val[e.key] = e.val
	}
	n.seq[e.key] = e.seq
}

// request is one pre-generated client request: a write (put or delete)
// plus a quorum read.
type request struct {
	del     bool
	key     int64
	val     uint64
	readKey int64
}

// Run implements propane.Target.
func (s System) Run(tc propane.TestCase, probe propane.Probe) (any, error) {
	return s.exec(s.newRunState(tc), probe, nil, -1, 0)
}

// runState is the complete resumable execution state of one run.
type runState struct {
	track int // current request index, 0-based
	phase int // next phase to execute within the request (see exec)

	rp replicate
	qu quorum

	nodes   [3]node // primary + 2 replicas
	log     []op    // replication log (primary appends, replicas apply)
	applied [3]int  // log entries applied per node (primary always len(log))

	divergences int32
	d0, d1      uint64

	// reqs is the generated workload, read-only for the whole run and
	// shared between clones.
	reqs []request
	keys int

	// VarRef slices over this struct's module fields, built once per
	// runState by refs and never cloned (a clone's refs point at the
	// clone's fields).
	rpVars, quVars []propane.VarRef
}

const (
	digestBasis0 = 14695981039346656037
	digestBasis1 = 0x9e3779b97f4a7c15
	digestPrime  = 1099511628211
)

func (s System) newRunState(tc propane.TestCase) *runState {
	keys := s.keys()
	if keys > maxKeys {
		keys = maxKeys
	}
	return &runState{
		d0:   digestBasis0,
		d1:   digestBasis1,
		reqs: generateRequests(tc.Seed, s.requests(), keys),
		keys: keys,
	}
}

// generateRequests synthesises the deterministic workload: 3 in 4
// requests put a fresh value, 1 in 4 deletes, and every request reads
// one key through the quorum path.
func generateRequests(seed uint64, n, keys int) []request {
	s := seed
	reqs := make([]request, n)
	for i := range reqs {
		r := splitmix(&s)
		reqs[i] = request{
			del:     r%4 == 3,
			key:     int64((r >> 8) % uint64(keys)),
			val:     splitmix(&s),
			readKey: int64(splitmix(&s) % uint64(keys)),
		}
	}
	return reqs
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fold mixes values into the rolling outcome digests.
func (r *runState) fold(vals ...uint64) {
	d0, d1 := r.d0, r.d1
	for _, v := range vals {
		d0 = (d0 ^ v) * digestPrime
		d1 = (d1 ^ (v + 0x9e3779b97f4a7c15)) * digestPrime
	}
	r.d0, r.d1 = d0, d1
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Clone implements propane.State. reqs is shared (read-only); the log
// is copied because both branches of a fork may append to it.
func (r *runState) Clone() propane.State {
	return &runState{
		track: r.track, phase: r.phase,
		rp: r.rp, qu: r.qu,
		nodes:       r.nodes,
		log:         append([]op(nil), r.log...),
		applied:     r.applied,
		divergences: r.divergences,
		d0:          r.d0, d1: r.d1,
		reqs: r.reqs,
		keys: r.keys,
	}
}

// Digest implements propane.State, fingerprinting every field that can
// reach the run's outcome, an error or panic, or another variable. It
// leaves out no instrumented variable: none is a write-only statistic
// (stale, the one counter, reaches the outcome). The workload is a pure
// function of the test case and is excluded.
func (r *runState) Digest() propane.Digest {
	h := propane.NewStateHasher()
	h.Int(r.track)
	h.Int(r.phase)
	h.Int64(r.rp.logSeq)
	h.Int64(r.rp.opKey)
	h.Uint64(r.rp.opVal)
	h.Bool(r.rp.opDel)
	h.Int64(r.rp.lag1)
	h.Int64(r.rp.lag2)
	h.Int64(r.qu.readKey)
	h.Uint64(r.qu.voteA)
	h.Uint64(r.qu.voteB)
	h.Int64(r.qu.seqA)
	h.Int64(r.qu.seqB)
	h.Uint64(r.qu.winVal)
	h.Int64(r.qu.winSeq)
	h.Int64(int64(r.qu.stale))
	h.Float64(r.qu.load)
	h.Bool(r.qu.present)
	for n := range r.nodes {
		nd := &r.nodes[n]
		for k := 0; k < r.keys; k++ {
			h.Uint64(nd.val[k])
			h.Uint64(nd.seq[k])
			h.Bool(nd.present[k])
		}
		h.Int(r.applied[n])
	}
	h.Int(len(r.log))
	for i := range r.log {
		e := &r.log[i]
		h.Uint64(e.seq)
		h.Int(e.key)
		h.Uint64(e.val)
		h.Bool(e.del)
	}
	h.Int64(int64(r.divergences))
	h.Uint64(r.d0)
	h.Uint64(r.d1)
	return h.Sum()
}

// refs returns the state's VarRef slices, building them on its first
// probed run. Golden and snapshot runs pass NopProbe and never call
// this, so they build no slices.
func (r *runState) refs() (rpVars, quVars []propane.VarRef) {
	if r.rpVars == nil {
		r.rpVars = r.rp.varRefs()
		r.quVars = r.qu.varRefs()
	}
	return r.rpVars, r.quVars
}

// normKey clamps a (possibly corrupted) key into the key space.
func (r *runState) normKey(k int64) int {
	keys := int64(r.keys)
	return int(((k % keys) + keys) % keys)
}

// Phase indices within one request. Each phase executes "everything up
// to and including the next instrumentation visit's work", so a
// snapshot taken at (track, phase) resumes with that phase's visit as
// the next visit issued.
const (
	phaseRepEntry = iota // Replicate Entry visit + primary apply/log append
	phaseRepExit         // Replicate Exit visit + log shipping + ack fold
	phaseQEntry          // Quorum Entry visit + quorum resolution
	phaseQExit           // Quorum Exit visit + read fold + sync barrier
)

// exec advances the run from st's position to completion, issuing probe
// visits in the canonical order. With stopTrack >= 0 it instead returns
// (nil, nil) the moment st reaches (stopTrack, stopPhase) — before that
// phase's visit — which is how Snapshot positions a state. ctl, when
// non-nil, is consulted at the end of every completed request.
func (s System) exec(st *runState, probe propane.Probe, ctl *propane.RunControl, stopTrack, stopPhase int) (any, error) {
	_, nop := probe.(propane.NopProbe)
	var rpVars, quVars []propane.VarRef
	if !nop {
		rpVars, quVars = st.refs()
	}
	step := 0
	for st.track < len(st.reqs) {
		i := st.track
		req := st.reqs[i]

		if st.phase == phaseRepEntry {
			if st.track == stopTrack && stopPhase == phaseRepEntry {
				return nil, nil
			}
			// --- Replicate: primary write for request i ---
			st.rp.logSeq = int64(len(st.log)) + 1
			st.rp.opKey = req.key
			st.rp.opVal = req.val
			st.rp.opDel = req.del
			st.rp.lag1 = int64((i + 1) % 3)
			st.rp.lag2 = int64((i + 2) % 3)
			if !nop {
				probe.Visit(ModuleReplicate, propane.Entry, rpVars)
			}
			// The primary applies whatever the (possibly corrupted)
			// module state now says and appends it to the log.
			e := op{
				seq: uint64(st.rp.logSeq),
				key: st.normKey(st.rp.opKey),
				val: st.rp.opVal,
				del: st.rp.opDel,
			}
			st.log = append(st.log, e)
			st.nodes[0].apply(e)
			st.applied[0] = len(st.log)
			st.phase = phaseRepExit
		}
		if st.phase == phaseRepExit {
			if st.track == stopTrack && stopPhase == phaseRepExit {
				return nil, nil
			}
			if !nop {
				probe.Visit(ModuleReplicate, propane.Exit, rpVars)
			}
			// Ship the log: each replica advances to len(log)-lag,
			// clamped so corrupted lags stall replication rather than
			// rewinding or overrunning it.
			st.ship(1, st.rp.lag1)
			st.ship(2, st.rp.lag2)
			// Acknowledge the write to the client: a later loss of this
			// update is a lost acknowledged write.
			st.fold(uint64(st.rp.logSeq), uint64(st.rp.opKey), st.rp.opVal, b2u(st.rp.opDel))
			st.phase = phaseQEntry
		}
		if st.phase == phaseQEntry {
			if st.track == stopTrack && stopPhase == phaseQEntry {
				return nil, nil
			}
			// --- Quorum: client read for request i ---
			key := st.normKey(req.readKey)
			voter := &st.nodes[1+i%2]
			st.qu.readKey = req.readKey
			st.qu.voteA = st.nodes[0].val[key]
			st.qu.seqA = int64(st.nodes[0].seq[key])
			st.qu.voteB = voter.val[key]
			st.qu.seqB = int64(voter.seq[key])
			st.qu.present = st.nodes[0].present[key]
			n := 0
			for k := 0; k < st.keys; k++ {
				if st.nodes[0].present[k] {
					n++
				}
			}
			st.qu.load = float64(n) / float64(st.keys)
			if !nop {
				probe.Visit(ModuleQuorum, propane.Entry, quVars)
			}
			// Resolve the quorum from the (possibly corrupted) votes:
			// highest sequence wins, primary breaks ties.
			if st.qu.seqA >= st.qu.seqB {
				st.qu.winVal, st.qu.winSeq = st.qu.voteA, st.qu.seqA
			} else {
				st.qu.winVal, st.qu.winSeq = st.qu.voteB, st.qu.seqB
			}
			if st.qu.seqB < st.qu.seqA {
				st.qu.stale++
			}
			st.phase = phaseQExit
		}
		if st.phase == phaseQExit {
			if st.track == stopTrack && stopPhase == phaseQExit {
				return nil, nil
			}
			if !nop {
				probe.Visit(ModuleQuorum, propane.Exit, quVars)
			}
			// The client observes the resolved read.
			st.fold(uint64(st.qu.readKey), st.qu.winVal, uint64(st.qu.winSeq),
				b2u(st.qu.present), uint64(st.qu.stale))
			// Sync barrier: force full catch-up, then demand identical
			// stores — the replication invariant.
			if (i+1)%syncEvery == 0 || i == len(st.reqs)-1 {
				st.barrier(i == len(st.reqs)-1)
			}
			st.phase = phaseRepEntry
			st.track++
			step++
			if ctl.Checkpoint(step, st) {
				return nil, propane.ErrConverged
			}
		}
	}
	return Outcome{Digest: st.d0, Divergences: st.divergences, StaleReads: st.qu.stale}, nil
}

// ship advances one replica along the log to len(log)-lag, clamped to
// [already applied, len(log)].
func (st *runState) ship(n int, lag int64) {
	target := len(st.log)
	if lag > 0 {
		if lag >= int64(target) {
			target = 0
		} else {
			target -= int(lag)
		}
	}
	if target < st.applied[n] {
		target = st.applied[n]
	}
	for ; st.applied[n] < target; st.applied[n]++ {
		st.nodes[n].apply(st.log[st.applied[n]])
	}
}

// barrier forces both replicas to full catch-up, compares the three
// stores key by key and folds the verdict (and, on the final barrier,
// the complete store contents) into the outcome digest.
func (st *runState) barrier(final bool) {
	st.ship(1, 0)
	st.ship(2, 0)
	diverged := false
	for n := 1; n < 3; n++ {
		for k := 0; k < st.keys; k++ {
			if st.nodes[n].val[k] != st.nodes[0].val[k] ||
				st.nodes[n].seq[k] != st.nodes[0].seq[k] ||
				st.nodes[n].present[k] != st.nodes[0].present[k] {
				diverged = true
			}
		}
	}
	if diverged {
		st.divergences++
	}
	st.fold(0xbeef, uint64(st.divergences), b2u(diverged))
	if final {
		for n := range st.nodes {
			for k := 0; k < st.keys; k++ {
				st.fold(st.nodes[n].val[k], st.nodes[n].seq[k], b2u(st.nodes[n].present[k]))
			}
		}
	}
}

var _ propane.Forkable = System{}

// Snapshot implements propane.Forkable: every module location activates
// exactly once per request, so the activation-th visit of (module, at)
// occurs on request activation-1 at a fixed phase.
func (s System) Snapshot(tc propane.TestCase, module string, at propane.Location, activation int) (propane.State, bool, error) {
	var phase int
	switch {
	case module == ModuleReplicate && at == propane.Entry:
		phase = phaseRepEntry
	case module == ModuleReplicate && at == propane.Exit:
		phase = phaseRepExit
	case module == ModuleQuorum && at == propane.Entry:
		phase = phaseQEntry
	case module == ModuleQuorum && at == propane.Exit:
		phase = phaseQExit
	default:
		return nil, false, nil
	}
	if activation < 1 || activation > s.requests() {
		return nil, false, nil
	}
	track := activation - 1
	st := s.newRunState(tc)
	if _, err := s.exec(st, propane.NopProbe{}, nil, track, phase); err != nil {
		return nil, false, err
	}
	if st.track != track || st.phase != phase {
		return nil, false, nil
	}
	return st, true, nil
}

// RunFrom implements propane.Forkable.
func (s System) RunFrom(st propane.State, probe propane.Probe, ctl *propane.RunControl) (any, error) {
	rs, ok := st.(*runState)
	if !ok {
		return nil, fmt.Errorf("kvstore: foreign state %T", st)
	}
	return s.exec(rs, probe, ctl, -1, 0)
}
