package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"edem/internal/durable"
	"edem/internal/propane"
)

// Journal layout: a directory holding one manifest and one append-only
// checkpoint log.
//
//	<dir>/manifest.json      content-addressed plan description
//	<dir>/checkpoints.jsonl  one JSON line per completed shard
//
// Both files go through internal/durable. The manifest is replaced
// atomically before any shard executes. Checkpoint lines are appended
// and fsynced as shards complete, in completion order — which varies
// with scheduling — so the log is an unordered set keyed by shard
// index; resume sorts it back into plan order. A line truncated by a
// kill mid-append fails to decode and is skipped on load: the shard it
// described simply re-runs. Reopening the log terminates that
// fragment's line, so it stays in the log as one skipped line until
// the journal is sealed.
//
// Sampled states are serialised as 16-digit hex IEEE-754 bit patterns,
// not JSON numbers: corrupted runs legitimately sample NaN and ±Inf
// (which encoding/json rejects) and bit patterns round-trip exactly,
// which the resume bit-identity guarantee depends on.
const (
	manifestName    = "manifest.json"
	checkpointsName = "checkpoints.jsonl"
)

// ErrJournalExists reports an existing journal opened without Resume.
var ErrJournalExists = errors.New("campaign: journal already exists (pass resume to continue it)")

// ErrPlanMismatch reports a journal whose manifest describes a
// different plan than the one being run.
var ErrPlanMismatch = errors.New("campaign: journal belongs to a different plan")

// manifest is the on-disk description of a plan.
type manifest struct {
	Version  int               `json:"version"`
	Plan     string            `json:"plan"`
	Dataset  string            `json:"dataset"`
	Target   string            `json:"target"`
	Module   string            `json:"module"`
	Vars     []manifestVar     `json:"vars"`
	Jobs     int               `json:"jobs"`
	Shards   int               `json:"shards"`
	Spec     manifestSpec      `json:"spec"`
	Sections []manifestSection `json:"sections,omitempty"`
}

type manifestVar struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// manifestSection records one plan section's job range and content
// sub-hash — the inputs of incremental invalidation: a journaled shard
// survives a spec change exactly when every section it overlaps kept
// the same (lo, hi, hash) triple.
type manifestSection struct {
	TC   int    `json:"tc"`
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
	Hash string `json:"hash"`
}

// manifestSpec records the result-determining spec fields for human
// inspection and for rebuilding the plan on resume. Execution knobs
// (workers, timeout, retries) are deliberately absent: they may change
// between the original run and a resume.
type manifestSpec struct {
	InjectAt  int    `json:"inject_at"`
	SampleAt  int    `json:"sample_at"`
	Times     []int  `json:"times"`
	TestCases int    `json:"test_cases"`
	Seed      uint64 `json:"seed"`
	BitStride int    `json:"bit_stride"`
	// The fault-model axis, absent for the default transient model so
	// transient manifests stay byte-identical to pre-fault-model ones
	// (and old manifests decode as transient).
	FaultModel string `json:"fault_model,omitempty"`
	FaultWidth int    `json:"fault_width,omitempty"`
	Persist    int    `json:"fault_persist,omitempty"`
}

func newManifest(p *Plan) manifest {
	vars := make([]manifestVar, len(p.Module.Vars))
	for i, v := range p.Module.Vars {
		vars[i] = manifestVar{Name: v.Name, Kind: v.Kind.String()}
	}
	sections := make([]manifestSection, len(p.Sections))
	for i, s := range p.Sections {
		sections[i] = manifestSection{TC: s.TC, Lo: s.Lo, Hi: s.Hi, Hash: s.Hash}
	}
	spec := manifestSpec{
		InjectAt:  int(p.Spec.InjectAt),
		SampleAt:  int(p.Spec.SampleAt),
		Times:     p.Spec.InjectionTimes,
		TestCases: p.Spec.TestCases,
		Seed:      p.Spec.Seed,
		BitStride: p.Spec.BitStride,
	}
	if f := p.Spec.Fault.Normalized(); !f.IsTransient() {
		spec.FaultModel = f.Model.String()
		spec.FaultWidth = f.Width
		spec.Persist = f.Persist
	}
	return manifest{
		Version:  p.version(),
		Plan:     p.Hash,
		Dataset:  p.Spec.Dataset,
		Target:   p.Target,
		Module:   p.Module.Name,
		Vars:     vars,
		Jobs:     len(p.Jobs),
		Shards:   p.Shards,
		Spec:     spec,
		Sections: sections,
	}
}

// checkpoint is one journal line: the complete outcome of one shard.
// Records appear in job order and cover the shard's whole range;
// skipped cells keep their identifying (unsampled) record in Records
// and additionally carry a reason here.
type checkpoint struct {
	Plan    string        `json:"plan"`
	Shard   int           `json:"shard"`
	Records []recordJSON  `json:"records"`
	Skipped []SkippedCell `json:"skipped,omitempty"`
}

// recordJSON is the journal encoding of propane.Record. State values
// are IEEE-754 bit patterns in hex (see the package comment above).
type recordJSON struct {
	TC       int      `json:"tc"`
	Var      string   `json:"var"`
	Bit      int      `json:"bit"`
	Time     int      `json:"t"`
	State    []string `json:"state"`
	Injected bool     `json:"inj,omitempty"`
	Sampled  bool     `json:"smp,omitempty"`
	Failure  bool     `json:"fail,omitempty"`
	Crashed  bool     `json:"crash,omitempty"`
	FlipErr  bool     `json:"flip_err,omitempty"`
}

func encodeRecord(r propane.Record) recordJSON {
	var state []string
	if r.State != nil {
		state = make([]string, len(r.State))
		for i, v := range r.State {
			state[i] = strconv.FormatUint(math.Float64bits(v), 16)
		}
	}
	return recordJSON{
		TC:       r.TestCase,
		Var:      r.Var,
		Bit:      r.Bit,
		Time:     r.InjectionTime,
		State:    state,
		Injected: r.Injected,
		Sampled:  r.Sampled,
		Failure:  r.Failure,
		Crashed:  r.Crashed,
		FlipErr:  r.FlipErr,
	}
}

func decodeRecord(r recordJSON) (propane.Record, error) {
	var state []float64
	if r.State != nil {
		state = make([]float64, len(r.State))
		for i, s := range r.State {
			bits, err := strconv.ParseUint(s, 16, 64)
			if err != nil {
				return propane.Record{}, fmt.Errorf("campaign: bad state bits %q: %w", s, err)
			}
			state[i] = math.Float64frombits(bits)
		}
	}
	return propane.Record{
		TestCase:      r.TC,
		Var:           r.Var,
		Bit:           r.Bit,
		InjectionTime: r.Time,
		State:         state,
		Injected:      r.Injected,
		Sampled:       r.Sampled,
		Failure:       r.Failure,
		Crashed:       r.Crashed,
		FlipErr:       r.FlipErr,
	}, nil
}

// createJournal initialises a fresh journal directory: the checkpoint
// log first, then the manifest, replaced atomically, so a kill during
// creation leaves either no manifest — no journal — or a complete one,
// never a torn manifest. The manifest's directory fsync comes after
// both files exist, so creation costs one; the log's own waits for its
// first checkpoint (durable.OpenLog).
func createJournal(dir string, p *Plan) (*durable.Log, error) {
	jnl, err := openCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	if err := writeManifest(dir, newManifest(p)); err != nil {
		jnl.Close()
		return nil, err
	}
	return jnl, nil
}

// writeManifest replaces <dir>/manifest.json atomically.
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return durable.WriteFile(filepath.Join(dir, manifestName), func(w io.Writer) error { _, err := w.Write(data); return err })
}

// openCheckpoints opens the checkpoint log for appending. A torn last
// line is terminated, so it stays one skipped line until sealing.
func openCheckpoints(dir string) (*durable.Log, error) {
	return durable.OpenLog(filepath.Join(dir, checkpointsName))
}

// encodeCheckpointLine renders one checkpoint as its canonical
// newline-terminated journal line. Every journal writer — the local
// engine, the fabric worker and the coordinator merge — goes through
// this one encoder, which is what makes a shard's bytes identical
// whichever machine executed it.
func encodeCheckpointLine(cp checkpoint) ([]byte, error) {
	data, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// readManifest loads <dir>/manifest.json. The boolean reports whether
// a manifest exists at all; any other read or decode problem is an
// error.
func readManifest(dir string) (manifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, false, fmt.Errorf("campaign: corrupt manifest in %s: %w", dir, err)
	}
	return m, true, nil
}

// readCheckpoints loads every decodable checkpoint of plan planHash
// from the journal, keyed by shard index. Undecodable lines (the
// torn tail of a killed append) are counted and skipped; duplicate
// shards keep the first occurrence (shards are deterministic, so
// duplicates are identical by construction). Lines recording a
// different plan hash are an error by default — the journal was
// cross-wired — unless dropForeign is set, in which case they are
// counted and skipped: incremental resume legitimately leaves
// superseded-plan lines behind when a kill lands between the manifest
// and checkpoint rewrites of a journal upgrade.
func readCheckpoints(dir, planHash string, dropForeign bool) (done map[int]checkpoint, torn, foreign int, err error) {
	done = make(map[int]checkpoint)
	torn, err = durable.Scan(filepath.Join(dir, checkpointsName), func(cp checkpoint) error {
		if cp.Plan != planHash {
			if dropForeign {
				foreign++
				return nil
			}
			return fmt.Errorf("%w: checkpoint for plan %.12s in journal for plan %.12s",
				ErrPlanMismatch, cp.Plan, planHash)
		}
		if _, ok := done[cp.Shard]; !ok {
			done[cp.Shard] = cp
		}
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return done, torn, foreign, nil
}

// writeCheckpointLog makes the checkpoint log hold exactly the given
// shards, one canonical line each, in ascending shard order. A log
// already holding those bytes is left untouched — the common case when
// sealing an uninterrupted local run; otherwise it is replaced
// atomically.
func writeCheckpointLog(dir string, cps map[int]checkpoint) error {
	shards := make([]int, 0, len(cps))
	for s := range cps {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	var buf []byte
	for _, s := range shards {
		line, err := encodeCheckpointLine(cps[s])
		if err != nil {
			return err
		}
		buf = append(buf, line...)
	}
	path := filepath.Join(dir, checkpointsName)
	if cur, err := os.ReadFile(path); err == nil && bytes.Equal(cur, buf) {
		return nil
	}
	return durable.WriteFile(path, func(w io.Writer) error { _, err := w.Write(buf); return err })
}

// sealJournal compacts a completed journal into its canonical form:
// one checkpoint line per shard, in ascending shard order, each line
// re-encoded by the canonical encoder, duplicates (work-stealing races)
// and torn tails dropped. Sealing is what makes completed journals
// comparable byte-for-byte across execution paths — a local run, a
// resumed run and a multi-worker fabric run of the same plan all seal
// to identical bytes. Re-encoding also drops fields the current format
// lacks, such as the per-shard fork statistics older binaries wrote.
func sealJournal(dir, planHash string, shards int) error {
	cps, _, _, err := readCheckpoints(dir, planHash, false)
	if err != nil {
		return err
	}
	if len(cps) != shards {
		return fmt.Errorf("campaign: seal: journal has %d of %d shards", len(cps), shards)
	}
	return writeCheckpointLog(dir, cps)
}
