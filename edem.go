// Package edem is the public facade of the EDEM library — a Go
// implementation of "A Methodology for the Generation of Efficient
// Error Detection Mechanisms" (Leeke, Arif, Jhumka, Anand; DSN 2011).
//
// The methodology turns fault-injection data into error detection
// predicates in four steps (paper Figure 1):
//
//  1. Fault injection analysis — edem.Campaign runs a PROPANE-style
//     campaign against a bundled target system, edem.RunCampaign
//     against your own.
//  2. Preprocessing — edem.Preprocess converts the campaign log into a
//     mining dataset (the PROPANE→ARFF transformation).
//  3. Model generation — edem.Baseline cross-validates a C4.5 decision
//     tree on the dataset (Table III); edem.C45 fits one and
//     edem.PredicateFromTree extracts its detection predicate.
//  4. Refinement — edem.RunMethodology does all four steps for a
//     bundled dataset, grid-searching sampling treatments
//     (undersampling, oversampling, SMOTE) for the best mean AUC
//     (Table IV), and extracts the winning tree as a deployable
//     predicate; edem.Confirm and edem.NewDetector deploy it
//     (§VII-D).
//
// The bundled target systems (7-Zip, FlightGear and Mp3Gain analogues)
// are selected through dataset IDs ("7Z-A1" … "MG-B3", Table II). Your
// own systems plug in by implementing the Target interface and calling
// RunCampaign; see examples/custom_target.
//
// The facade holds what the examples use and nothing else; the CLI
// (cmd/edem) drives serving, the fabric, lifecycle and telemetry.
package edem

import (
	"context"
	"fmt"

	"edem/internal/bitflip"
	"edem/internal/campaign"
	"edem/internal/core"
	"edem/internal/dataset"
	"edem/internal/mining/eval"
	"edem/internal/mining/tree"
	"edem/internal/predicate"
	"edem/internal/propane"
)

// The four steps on the bundled dataset IDs (examples/quickstart,
// examples/archiver, examples/flightgear).
type (
	// Options scales and seeds the experiment suite.
	Options = core.Options
	// Report is the full methodology output for one dataset.
	Report = core.Report
	// SamplingConfig is one refinement grid point.
	SamplingConfig = core.SamplingConfig
	// Confirmation is the §VII-D outcome: rates and detection latency.
	Confirmation = core.Confirmation
	// CampaignResult holds the injected-run records.
	CampaignResult = propane.Campaign
	// Dataset is the mining data model.
	Dataset = dataset.Dataset
	// CVResult aggregates a stratified cross-validation.
	CVResult = eval.CVResult
	// Predicate is a detector predicate in disjunctive normal form.
	Predicate = predicate.Predicate
	// Detector is a predicate installed as a runtime assertion.
	Detector = predicate.Detector
)

// Sampling kinds for refinement grid points.
const (
	Undersampling = core.Undersampling
	Oversampling  = core.Oversampling
	Smote         = core.Smote
)

// DefaultOptions returns the laptop-scale defaults (all 18 datasets,
// every variable, strided bit coverage).
func DefaultOptions() Options { return core.DefaultOptions() }

// Campaign runs Step 1 for a Table II dataset ID.
func Campaign(ctx context.Context, id string, opts Options) (*CampaignResult, error) {
	return core.Campaign(ctx, id, opts)
}

// Preprocess runs Step 2: campaign log to mining dataset.
func Preprocess(ctx context.Context, c *CampaignResult) (*Dataset, error) {
	return core.Preprocess(ctx, c)
}

// Baseline runs Step 3: baseline C4.5 under stratified 10-fold CV.
func Baseline(ctx context.Context, d *Dataset, opts Options) (*CVResult, error) {
	return core.Baseline(ctx, d, opts)
}

// C45 returns a C4.5 learner with the paper's default configuration.
func C45() tree.Learner { return tree.Learner{} }

// PredicateFromTree extracts the DNF detection predicate from an
// induced decision tree (paths to positiveClass leaves).
func PredicateFromTree(t *tree.Tree, positiveClass int, name string) (*Predicate, error) {
	return predicate.FromTree(t, positiveClass, name)
}

// RunMethodology executes Steps 1-4 for a dataset ID and extracts the
// detector predicate.
func RunMethodology(ctx context.Context, id string, grid []SamplingConfig, opts Options) (*Report, error) {
	return core.RunMethodology(ctx, id, grid, opts)
}

// Confirm repeats fault injection with the predicate installed as a
// runtime assertion and traces every failing run to its first alarm
// (§VII-D).
func Confirm(ctx context.Context, id string, pred *Predicate, opts Options) (*Confirmation, error) {
	return core.Confirm(ctx, id, pred, opts)
}

// NewDetector wraps a predicate as a runtime assertion probe at the
// given module location (examples/archiver). It fails for a predicate
// the compiler refuses.
func NewDetector(module string, loc propane.Location, pred *Predicate) (*Detector, error) {
	return predicate.NewDetector(module, loc, pred)
}

// Chain fans instrumentation visits out to several probes in order —
// for example an injector plus a deployed detector (examples/archiver).
func Chain(probes ...Probe) Probe { return propane.Chain(probes...) }

// What a custom target implements and how it is campaigned
// (examples/custom_target).
type (
	// Target is a system under fault injection.
	Target = propane.Target
	// Spec configures a campaign.
	Spec = propane.Spec
	// Probe receives instrumentation visits.
	Probe = propane.Probe
	// VarRef is a live reference to an instrumented variable.
	VarRef = propane.VarRef
	// ModuleInfo describes one instrumented module.
	ModuleInfo = propane.ModuleInfo
	// VarDecl declares an instrumented variable.
	VarDecl = propane.VarDecl
	// TestCase is one workload configuration.
	TestCase = propane.TestCase
)

// Instrumentation locations.
const (
	Entry = propane.Entry
	Exit  = propane.Exit
)

// Variable kinds for VarDecl.
const (
	Float64Kind = bitflip.Float64
	Int64Kind   = bitflip.Int64
)

// VarRef adapters; targets build these once per run and pass them to
// every Probe.Visit. A VarRef holds a typed pointer to its variable,
// not closures, so building one allocates nothing.
var (
	Float64Ref = propane.Float64Ref
	Int64Ref   = propane.Int64Ref
)

// RunCampaign runs Step 1 against a user-provided target system on the
// campaign engine. A cell the engine would skip (a failing golden run,
// an engine panic) is an error here.
func RunCampaign(ctx context.Context, target Target, spec Spec) (*CampaignResult, error) {
	res, err := campaign.Run(ctx, target, spec, campaign.Config{})
	if err != nil {
		return nil, err
	}
	if len(res.Skipped) > 0 {
		sk := res.Skipped[0]
		return nil, fmt.Errorf("edem: campaign %s skipped %d cell(s), first test case %d: %s",
			spec.Dataset, len(res.Skipped), sk.TC, sk.Reason)
	}
	return res.Campaign, nil
}
