// Package edem is the public facade of the EDEM library — a Go
// implementation of "A Methodology for the Generation of Efficient
// Error Detection Mechanisms" (Leeke, Arif, Jhumka, Anand; DSN 2011).
//
// The methodology turns fault-injection data into error detection
// predicates in four steps (paper Figure 1):
//
//  1. Fault injection analysis — edem.Campaign runs a PROPANE-style
//     campaign against an instrumented target system.
//  2. Preprocessing — edem.Preprocess converts the campaign log into a
//     mining dataset (the PROPANE→ARFF transformation).
//  3. Model generation — edem.Baseline cross-validates a C4.5 decision
//     tree on the dataset (Table III).
//  4. Refinement — edem.Refine grid-searches sampling treatments
//     (undersampling, oversampling, SMOTE) for the best mean AUC
//     (Table IV); edem.RunMethodology does all four steps and extracts
//     the winning tree as a deployable predicate.
//
// The bundled target systems (7-Zip, FlightGear and Mp3Gain analogues)
// are selected through dataset IDs ("7Z-A1" … "MG-B3", Table II). Your
// own systems plug in by implementing the Target interface and calling
// RunCampaign; see examples/custom_target.
package edem

import (
	"context"
	"io"

	"edem/internal/bitflip"
	"edem/internal/campaign"
	"edem/internal/core"
	"edem/internal/dataset"
	"edem/internal/fabric"
	"edem/internal/lifecycle"
	"edem/internal/mining"
	"edem/internal/mining/eval"
	"edem/internal/mining/rules"
	"edem/internal/mining/tree"
	"edem/internal/parallel"
	"edem/internal/predicate"
	"edem/internal/propane"
	"edem/internal/serve"
	"edem/internal/telemetry"
)

// Re-exported core types. See the internal packages for full details:
// the facade keeps one import path for library consumers.
type (
	// Options scales and seeds the experiment suite.
	Options = core.Options
	// Row is one line of Table III / Table IV.
	Row = core.Row
	// Report is the full methodology output for one dataset.
	Report = core.Report
	// SamplingConfig is one refinement grid point.
	SamplingConfig = core.SamplingConfig
	// RefineResult is the Step 4 outcome.
	RefineResult = core.RefineResult
	// ValidationResult is the §VII-D re-validation outcome.
	ValidationResult = core.ValidationResult

	// Target is a system under fault injection.
	Target = propane.Target
	// Spec configures a campaign.
	Spec = propane.Spec
	// CampaignResult holds the injected-run records.
	CampaignResult = propane.Campaign
	// Probe receives instrumentation visits.
	Probe = propane.Probe
	// VarRef is a live reference to an instrumented variable.
	VarRef = propane.VarRef

	// Dataset is the mining data model.
	Dataset = dataset.Dataset
	// Predicate is a detector predicate in disjunctive normal form.
	Predicate = predicate.Predicate
	// Detector is a predicate installed as a runtime assertion.
	Detector = predicate.Detector
	// CVResult aggregates a stratified cross-validation.
	CVResult = eval.CVResult
)

// Sampling kinds for refinement configurations.
const (
	NoSampling    = core.NoSampling
	Undersampling = core.Undersampling
	Oversampling  = core.Oversampling
	Smote         = core.Smote
)

// DefaultOptions returns the laptop-scale defaults (all 18 datasets,
// every variable, strided bit coverage).
func DefaultOptions() Options { return core.DefaultOptions() }

// AllDatasetIDs lists the Table II dataset names.
func AllDatasetIDs() []string { return core.AllDatasetIDs() }

// Campaign runs Step 1 for a Table II dataset ID.
func Campaign(ctx context.Context, id string, opts Options) (*CampaignResult, error) {
	return core.Campaign(ctx, id, opts)
}

// RunCampaign runs Step 1 against a user-provided target system.
func RunCampaign(ctx context.Context, target Target, spec Spec) (*CampaignResult, error) {
	return propane.Run(ctx, target, spec)
}

// Preprocess runs Step 2: campaign log to mining dataset.
func Preprocess(ctx context.Context, c *CampaignResult) (*Dataset, error) {
	return core.Preprocess(ctx, c)
}

// Baseline runs Step 3: baseline C4.5 under stratified 10-fold CV.
func Baseline(ctx context.Context, d *Dataset, opts Options) (*CVResult, error) {
	return core.Baseline(ctx, d, opts)
}

// Refine runs Step 4 over a sampling grid.
func Refine(ctx context.Context, d *Dataset, grid []SamplingConfig, opts Options) (*RefineResult, error) {
	return core.Refine(ctx, d, grid, opts)
}

// RefineGrid returns the refinement search grid; full selects the
// paper-scale grid.
func RefineGrid(full bool) []SamplingConfig { return core.RefineGrid(full) }

// Resumable campaign engine types. The engine shards a campaign into
// journaled checkpoints so killed runs resume from the last checkpoint
// and persistently failing cells degrade to skip-and-record; see
// internal/campaign for the guarantees.
type (
	// CampaignConfig tunes the resumable campaign engine (journal
	// directory, resume, shard count, per-run timeout, retry policy).
	CampaignConfig = campaign.Config
	// CampaignOutcome is the engine result: the assembled records plus
	// resume accounting and any skipped cells.
	CampaignOutcome = campaign.Result
	// SkippedCell records one injection-space cell the engine gave up
	// on, with the reason.
	SkippedCell = campaign.SkippedCell
)

// RunResumableCampaign runs (or resumes) a journaled fault-injection
// campaign against a user-provided target system. With a zero Config it
// behaves like RunCampaign but adds timeout, retry and skip handling;
// with Config.Journal set, the run checkpoints and resumes. The records
// are bit-identical to an uninterrupted RunCampaign of the same spec.
func RunResumableCampaign(ctx context.Context, target Target, spec Spec, cfg CampaignConfig) (*CampaignOutcome, error) {
	return campaign.Run(ctx, target, spec, cfg)
}

// Campaign fabric types. The fabric distributes one campaign across
// machines: a coordinator owns the plan and journal and arbitrates
// time-bounded shard leases (with heartbeat renewal and work-stealing
// of stragglers); workers execute leased shards with the ordinary
// campaign engine and stream checkpoint lines back; the coordinator
// merges first-wins into a journal byte-identical to a local run's.
// See internal/fabric for the protocol and the lease state machine.
type (
	// FabricCoordinator owns a distributed campaign's plan and journal.
	FabricCoordinator = fabric.Coordinator
	// FabricCoordinatorConfig tunes lease TTL, per-shard steal fan-out
	// and drain behaviour.
	FabricCoordinatorConfig = fabric.CoordinatorConfig
	// FabricWorker leases and executes shards for a coordinator.
	FabricWorker = fabric.Worker
	// FabricWorkerConfig points a worker at its coordinator.
	FabricWorkerConfig = fabric.WorkerConfig
	// CampaignExecutor runs individual plan shards outside the
	// whole-campaign loop (the fabric worker's engine).
	CampaignExecutor = campaign.Executor
	// CampaignLedger merges checkpoint lines first-wins into a journal
	// (the fabric coordinator's authority).
	CampaignLedger = campaign.Ledger
)

// NewFabricCoordinator opens (or resumes) the journal for (target,
// spec) — ccfg.Journal must be set — and returns the coordinator ready
// to ListenAndServe. With ccfg.Incremental, a spec change invalidates
// only the shards whose test-case sections changed.
func NewFabricCoordinator(target Target, spec Spec, ccfg CampaignConfig, cfg FabricCoordinatorConfig) (*FabricCoordinator, error) {
	return fabric.NewCoordinator(target, spec, ccfg, cfg)
}

// NewFabricWorker verifies the local plan against the coordinator's
// and returns a worker ready to Run. The worker never touches disk:
// completed shards stream to the coordinator.
func NewFabricWorker(ctx context.Context, target Target, spec Spec, ccfg CampaignConfig, cfg FabricWorkerConfig) (*FabricWorker, error) {
	return fabric.NewWorker(ctx, target, spec, ccfg, cfg)
}

// SetWorkerBudget sets the process-wide worker budget shared by every
// parallel section (campaign runs, CV folds, refinement cells, table
// rows); n <= 0 restores the default of all cores. Results never depend
// on the budget — only wall-clock time does.
func SetWorkerBudget(n int) { parallel.SetBudget(n) }

// Telemetry types. A Metrics registry collects counters, gauges,
// histograms and phase-span aggregates from every instrumented pipeline
// stage; a MetricsSnapshot is its consistent point-in-time export.
type (
	// Metrics is a telemetry registry. The nil registry is valid and
	// absorbs all operations at near-zero cost (the disabled fast path).
	Metrics = telemetry.Registry
	// MetricsSnapshot is a JSON-serialisable registry export.
	MetricsSnapshot = telemetry.Snapshot
	// PhaseSpan measures one timed pipeline phase; see StartSpan.
	PhaseSpan = telemetry.Span
)

// NewMetrics returns a fresh, unattached registry — pass it through
// WithTelemetry to collect metrics for one experiment without touching
// the process default.
func NewMetrics() *Metrics { return telemetry.New() }

// EnableTelemetry installs a fresh process-default registry and returns
// it. Every pipeline stage that is not given a context-local registry
// via WithTelemetry reports into the process default.
func EnableTelemetry() *Metrics {
	r := telemetry.New()
	telemetry.SetDefault(r)
	return r
}

// DisableTelemetry removes the process-default registry, restoring the
// near-zero-overhead disabled path.
func DisableTelemetry() { telemetry.SetDefault(nil) }

// Telemetry returns the process-default registry, or nil when disabled.
func Telemetry() *Metrics { return telemetry.Default() }

// WithTelemetry attaches a registry to the context; pipeline stages
// called with the returned context report into r instead of the process
// default. Context-local registries isolate concurrent experiments.
func WithTelemetry(ctx context.Context, r *Metrics) context.Context {
	return telemetry.WithRegistry(ctx, r)
}

// StartSpan opens a named telemetry phase (nested under any phase
// already on ctx). Close it with span.End(); when telemetry is disabled
// it returns ctx unchanged and a nil (no-op) span.
func StartSpan(ctx context.Context, name string) (context.Context, *PhaseSpan) {
	return telemetry.StartSpan(ctx, name)
}

// RunMethodology executes Steps 1-4 for a dataset ID and extracts the
// detector predicate.
func RunMethodology(ctx context.Context, id string, grid []SamplingConfig, opts Options) (*Report, error) {
	return core.RunMethodology(ctx, id, grid, opts)
}

// ValidateDetector re-runs fault injection on a fresh workload with the
// predicate installed as a runtime assertion (§VII-D).
func ValidateDetector(ctx context.Context, id string, pred *Predicate, opts Options) (*ValidationResult, error) {
	return core.ValidateDetector(ctx, id, pred, opts)
}

// NewDetector wraps a predicate as a runtime assertion probe at the
// given module location. It fails for a predicate CompilePredicate
// refuses.
func NewDetector(module string, loc propane.Location, pred *Predicate) (*Detector, error) {
	return predicate.NewDetector(module, loc, pred)
}

// WriteARFF serialises a dataset in the Weka ARFF format.
func WriteARFF(w io.Writer, d *Dataset) error { return dataset.WriteARFF(w, d) }

// ReadARFF parses an ARFF stream.
func ReadARFF(r io.Reader) (*Dataset, error) { return dataset.ReadARFF(r) }

// WriteLog serialises a campaign in the PROPANE log format.
func WriteLog(w io.Writer, c *CampaignResult) error { return propane.WriteLog(w, c) }

// ReadLog parses a PROPANE log stream.
func ReadLog(r io.Reader) (*CampaignResult, error) { return propane.ReadLog(r) }

// Instrumentation locations.
const (
	Entry = propane.Entry
	Exit  = propane.Exit
)

// Types needed to implement a custom Target.
type (
	// ModuleInfo describes one instrumented module.
	ModuleInfo = propane.ModuleInfo
	// VarDecl declares an instrumented variable.
	VarDecl = propane.VarDecl
	// TestCase is one workload configuration.
	TestCase = propane.TestCase
	// Location is an instrumentation point (Entry or Exit).
	Location = propane.Location
)

// Variable kinds for VarDecl.
const (
	Float64Kind = bitflip.Float64
	Float32Kind = bitflip.Float32
	Int64Kind   = bitflip.Int64
	Int32Kind   = bitflip.Int32
	Uint64Kind  = bitflip.Uint64
	BoolKind    = bitflip.Bool
)

// VarRef adapters for common Go types; targets build these once per run
// and pass them to every Probe.Visit.
var (
	Float64Ref = propane.Float64Ref
	Float32Ref = propane.Float32Ref
	Int64Ref   = propane.Int64Ref
	Int32Ref   = propane.Int32Ref
	IntRef     = propane.IntRef
	Uint64Ref  = propane.Uint64Ref
	BoolRef    = propane.BoolRef
)

// Fault selects the campaign's fault model (Spec.Fault / core.Options.
// Fault). The zero value is the classic transient single bit-flip and
// keeps plans, journals and ARFF output byte-identical to campaigns
// that predate the axis.
type Fault = bitflip.Fault

// FaultModel enumerates the supported fault models.
type FaultModel = bitflip.Model

// Fault models for Fault.Model.
const (
	Transient    = bitflip.Transient
	Burst        = bitflip.Burst
	StuckAt      = bitflip.StuckAt
	Intermittent = bitflip.Intermittent
)

// ParseFaultModel parses a fault-model name ("transient", "burst",
// "stuckat", "intermittent").
func ParseFaultModel(s string) (FaultModel, error) { return bitflip.ParseModel(s) }

// NopProbe ignores all instrumentation visits; use it for plain runs.
type NopProbe = propane.NopProbe

// Chain fans instrumentation visits out to several probes in order —
// for example an injector plus a deployed detector.
func Chain(probes ...Probe) Probe { return propane.Chain(probes...) }

// CrossValidate runs stratified k-fold cross-validation of any learner
// on a dataset; see internal/mining for the Learner interface. The ctx
// cancels fold evaluation and carries the telemetry registry, if any.
func CrossValidate(ctx context.Context, l mining.Learner, d *Dataset, cfg eval.CVConfig) (*CVResult, error) {
	return eval.CrossValidate(ctx, l, d, cfg)
}

// PredicateFromTree extracts the DNF detection predicate from an
// induced decision tree (paths to positiveClass leaves).
func PredicateFromTree(t *tree.Tree, positiveClass int, name string) (*Predicate, error) {
	return predicate.FromTree(t, positiveClass, name)
}

// C45 returns a C4.5 learner with the paper's default configuration.
func C45() tree.Learner { return tree.Learner{} }

// PredicateFromRules extracts a DNF predicate from a PRISM covering
// rule set — the paper's alternative symbolic learner (§V-C).
func PredicateFromRules(rs *rules.RuleSet, positiveClass int, vars []string, name string) (*Predicate, error) {
	return predicate.FromRules(rs, positiveClass, vars, name)
}

// SummarizeCampaign aggregates a campaign's outcomes per injected
// variable — the failure fingerprint the decision trees learn from.
func SummarizeCampaign(c *CampaignResult) []propane.VarStat { return propane.Summarize(c) }

// MeasureLatency traces failure-inducing runs with the predicate
// installed and reports detection latency in activations.
func MeasureLatency(ctx context.Context, id string, pred *Predicate, opts Options) (*core.LatencyResult, error) {
	return core.MeasureLatency(ctx, id, pred, opts)
}

// Detector-serving runtime types. The serving runtime deploys exported
// predicate bundles as a long-running HTTP service with admission
// control, per-detector circuit breaking, configurable fail-open/
// fail-closed degradation, hot reload and draining shutdown; see
// internal/serve for the robustness contract.
type (
	// DetectorBundle is the deployable artefact written by `edem export`:
	// learnt predicates tagged with the module/location they guard.
	DetectorBundle = serve.Bundle
	// DetectorBundleEntry is one deployable detector in a bundle.
	DetectorBundleEntry = serve.BundleEntry
	// ServeConfig tunes the serving runtime (queue depth, deadlines,
	// breaker thresholds, degradation policy, drain budget).
	ServeConfig = serve.Config
	// DetectorServer is the online serving runtime.
	DetectorServer = serve.Server
	// DetectorClient is the retrying client for the serving runtime.
	DetectorClient = serve.Client
	// StateSample is one state vector on the wire; NaN and ±Inf survive
	// JSON transport bit-exactly (hex-encoded IEEE-754).
	StateSample = serve.Sample
)

// Degradation policies for the serving runtime.
const (
	// FailClosed surfaces detector faults and open circuits as errors.
	FailClosed = serve.FailClosed
	// FailOpen returns empty degraded verdicts instead of errors.
	FailOpen = serve.FailOpen
)

// LoadDetectorBundle reads and validates a detector bundle file.
func LoadDetectorBundle(path string) (*DetectorBundle, error) { return serve.LoadBundle(path) }

// NewDetectorServer builds a serving runtime over a validated bundle.
// path is the bundle's file path, used for hot reload ("" disables
// path-based reload).
func NewDetectorServer(b *DetectorBundle, path string, cfg ServeConfig) (*DetectorServer, error) {
	return serve.NewServer(b, path, cfg)
}

// ServeCodec selects the wire format a DetectorClient speaks.
type ServeCodec = serve.Codec

// Wire formats for the serving runtime. JSON is the compatibility
// surface; the binary batch frame moves IEEE-754 bits verbatim in a
// columnar length-prefixed layout and is ~an order of magnitude faster
// end to end (see DESIGN.md §14).
const (
	CodecJSON   = serve.CodecJSON
	CodecBinary = serve.CodecBinary
)

// CompiledProgram is a predicate lowered to a flat threshold table —
// the allocation-free evaluation form the serving runtime runs.
type CompiledProgram = predicate.Program

// CompilePredicate lowers a DNF predicate into a CompiledProgram whose
// Eval is bit-identical to the interpreted Predicate.Eval. Predicates
// the compiler cannot represent exactly return an error, and no runtime
// evaluator (NewDetector, the serving runtime) accepts them.
func CompilePredicate(p *Predicate) (*CompiledProgram, error) { return predicate.Compile(p) }

// Detector lifecycle types. The lifecycle closes the methodology's
// refinement loop at serving time: a feedback journal of labelled
// alarm outcomes, drift detection against a frozen baseline, and the
// shadow/canary accounting the serving runtime uses to promote a
// candidate bundle or roll it back automatically; see
// internal/lifecycle and DESIGN.md §16.
type (
	// LifecycleMonitor owns the serving-side lifecycle: journals, drift
	// tracker and the canary rollback window. Attach one through
	// ServeConfig.Monitor; a nil monitor disables all lifecycle hooks.
	LifecycleMonitor = lifecycle.Monitor
	// LifecycleMonitorConfig tunes the monitor (journal directory,
	// canary thresholds, drift thresholds).
	LifecycleMonitorConfig = lifecycle.MonitorConfig
	// DriftTracker accumulates per-detector alarm-rate and
	// feature-distribution evidence and compares it against a baseline.
	DriftTracker = lifecycle.Tracker
	// DriftConfig tunes the drift comparator thresholds.
	DriftConfig = lifecycle.DriftConfig
	// DriftRow is one detector's drift report row.
	DriftRow = lifecycle.DriftRow
	// FeedbackRecord is one labelled alarm outcome in the feedback
	// journal.
	FeedbackRecord = lifecycle.FeedbackRecord
	// VerdictDiffRecord is one journalled live-vs-candidate
	// disagreement.
	VerdictDiffRecord = lifecycle.DiffRecord
	// LifecycleWindow is the shadow/canary accounting window.
	LifecycleWindow = lifecycle.WindowStats
)

// NewLifecycleMonitor opens (or continues) the lifecycle journals under
// cfg.Dir and returns a monitor ready for ServeConfig.Monitor. Close it
// after the server drains.
func NewLifecycleMonitor(cfg LifecycleMonitorConfig) (*LifecycleMonitor, error) {
	return lifecycle.NewMonitor(cfg)
}

// ReadFeedbackJournal loads every decodable feedback record from a
// feedback.jsonl file, also reporting how many torn lines were skipped.
func ReadFeedbackJournal(path string) (recs []FeedbackRecord, torn int, err error) {
	return lifecycle.ReadFeedback(path)
}

// ReadVerdictDiffJournal loads every decodable verdict-diff record from
// a diffs.jsonl file, also reporting how many torn lines were skipped.
func ReadVerdictDiffJournal(path string) (recs []VerdictDiffRecord, torn int, err error) {
	return lifecycle.ReadDiffs(path)
}

// WriteCSV serialises a dataset as CSV (header row, class column last).
func WriteCSV(w io.Writer, d *Dataset) error { return dataset.WriteCSV(w, d) }

// ReadCSV parses a CSV stream with inferred column types.
func ReadCSV(r io.Reader, name string) (*Dataset, error) { return dataset.ReadCSV(r, name) }
