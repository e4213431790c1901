// Package fabric distributes a fault-injection campaign across
// machines: one coordinator owns the plan and the journal, any number
// of workers lease pending shards, execute them with the ordinary
// campaign engine (fork fast path included) and stream the resulting
// checkpoint lines back. The coordinator merges first-wins into the
// same checkpoints.jsonl format the local engine writes, so `-resume`
// and the bit-identity guarantee hold across machines: a single-machine
// fabric run seals to a journal byte-identical to a local run.
//
// # Protocol
//
// The fabric speaks HTTP on the shared internal/serve plumbing
// (RunHTTP drain semantics, serve.Do requests, serve.ErrorResponse
// error bodies); a worker retries a coordinator call on a 5xx or a
// transport error. Every message is JSON, and every worker request
// names its worker in the X-Fabric-Worker header. A
// completed shard travels as its canonical journal line, whose sampled
// states are hex IEEE-754 bit patterns — the same exact transport the
// journal and the serving codecs use, so records cross the wire
// bit-exactly.
//
//	GET  /fabric/v1/plan      → PlanStatus (identity check + progress)
//	POST /fabric/v1/lease     → LeaseResponse
//	POST /fabric/v1/renew     RenewRequest → RenewResponse
//	POST /fabric/v1/complete  checkpoint line → CompleteResponse
//	GET  /metrics             telemetry Snapshot (the fabric.* counters)
//	GET  /healthz             PlanStatus, open even with an auth token
//
// # Leases
//
// A lease is a time-bounded scheduling hint: it tells other workers to
// look elsewhere, nothing more. Correctness never depends on lease
// validity — the ledger's first-wins merge keyed by plan position does
// all the deduplication — so a coordinator restart (leases are in
// memory only) silently accepts completions for leases it never issued,
// and an expired lease's completion still wins if it arrives first.
//
// The lease state machine, per shard:
//
//	pending  no active lease, not committed; lowest pending shard is
//	         granted first (deterministic scheduling)
//	leased   one or more active leases; expiry (TTL without renewal)
//	         returns the shard to pending, heartbeat renewal extends it
//	done     committed to the journal; all its leases dissolve and any
//	         further completion is a counted duplicate. A dissolved
//	         lease of another worker than the uploader keeps a complete
//	         coordinator serving until its holder calls in or it lapses
//
// Work-stealing: when nothing is pending but leases are outstanding,
// an idle worker is granted a duplicate lease on the slowest
// outstanding shard (oldest grant, fewest leases first) — stragglers
// get raced instead of stalling the tail of the campaign. First
// completion wins; the loser becomes fabric.duplicate_cells.
//
// # Incremental invalidation
//
// The coordinator's journal is a campaign.Ledger, the same object a
// local campaign.Run opens and commits through, so resume,
// campaign.Config.Incremental and the check on every restored or
// uploaded checkpoint work unchanged: per-section sub-hash diffing
// marks only invalidated shards pending, and workers re-execute
// exactly those.
package fabric

// Wire types of the JSON control endpoints.

// PlanStatus is the coordinator's identity and progress: workers check
// Plan (and build their executor with Shards) before leasing; `edem
// fabric serve` polls it for progress logging.
type PlanStatus struct {
	Plan    string `json:"plan"`
	Dataset string `json:"dataset"`
	Target  string `json:"target"`
	// Fault is the campaign's fault-model axis ("burst(width=3)", ...),
	// omitted for the default transient model, whose PlanStatus reads as
	// it did before the axis existed; a fault-model mismatch still fails
	// the plan-hash identity check before any shard is leased.
	Fault    string `json:"fault,omitempty"`
	Jobs     int    `json:"jobs"`
	Shards   int    `json:"shards"`
	Done     int    `json:"done"`
	Leases   int    `json:"leases"`
	Complete bool   `json:"complete"`
}

// LeaseResponse grants a shard (Shard >= 0) or reports why not:
// Complete means the campaign is finished, otherwise nothing is
// leasable right now (every pending shard saturated) and the worker
// should poll again. Stolen marks a duplicate lease on a straggler.
type LeaseResponse struct {
	Shard    int    `json:"shard"`
	Lease    string `json:"lease,omitempty"`
	TTLMS    int64  `json:"ttl_ms,omitempty"`
	Stolen   bool   `json:"stolen,omitempty"`
	Complete bool   `json:"complete,omitempty"`
}

// RenewRequest heartbeats a lease.
type RenewRequest struct {
	Lease string `json:"lease"`
}

// RenewResponse: OK extends the lease by one TTL. A dead lease with
// Done set means the shard was committed (by anyone) — stop working on
// it; dead without Done means the lease expired or the coordinator
// restarted, and finishing the shard is still worthwhile (first-wins).
type RenewResponse struct {
	OK   bool `json:"ok"`
	Done bool `json:"done,omitempty"`
}

// CompleteResponse reports the merge outcome of one uploaded shard.
type CompleteResponse struct {
	Shard     int  `json:"shard"`
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate"`
	Complete  bool `json:"complete"`
}

// The worker-name header and the upload limits: the coordinator
// refuses (400) a worker name over maxNameLen bytes or a checkpoint
// line over maxLineLen bytes.
const (
	workerHeader = "X-Fabric-Worker"
	maxNameLen   = 1 << 10
	maxLineLen   = 256 << 20 // a shard of very wide records; generous
)
