// Package mp3gain implements the Mp3Gain-analog target system of the
// paper (§VI-B): a ReplayGain-style volume normaliser that analyses the
// loudness of a set of audio tracks and rescales each one to a target
// loudness. Two modules are instrumented, matching Table II: GAnalysis
// (the loudness analyser) and RGain (the gain computation/application).
//
// Tracks are synthetic PCM buffers (sine carriers plus noise at varying
// amplitudes) generated deterministically per test case, standing in for
// the paper's mp3 file sets; what the methodology observes is module
// state and output equivalence, both of which this workload exercises
// identically.
//
// Role in the methodology: a Step 1 system under injection (datasets
// MG-A*/MG-B* of Table II). Concurrency: System is a stateless value —
// each Run call synthesises its tracks and analyser state from the test
// case seed, so campaign workers share one System and call Run
// concurrently; the per-run Probe is the only externally supplied
// state.
package mp3gain

import (
	"fmt"
	"math"

	"edem/internal/bitflip"
	"edem/internal/propane"
	"edem/internal/stats"
)

// Module names as they appear in Table II.
const (
	ModuleGAnalysis = "GAnalysis"
	ModuleRGain     = "RGain"
)

// Analysis constants.
const (
	sampleRate     = 8000
	windowLen      = 400 // 50 ms analysis windows
	targetLoudness = 89.0
	loudnessFloor  = 20.0
	maxGainDB      = 30.0
	// gainStepDB is the granularity of applied gain: like mp3gain's
	// global gain field, gain is applied in fixed steps, so tiny
	// perturbations of the analysis rarely change the output.
	gainStepDB = 1.5
)

// System is the Mp3Gain-analog target. TracksPerCase tracks are
// normalised per test case (the paper uses 25 mp3 files).
type System struct {
	// TracksPerCase is the number of tracks per test case (default 8).
	TracksPerCase int
	// SamplesPerTrack is the PCM length of each track (default 2000).
	SamplesPerTrack int
}

var _ propane.Target = System{}

func (s System) tracksPerCase() int {
	if s.TracksPerCase <= 0 {
		return 8
	}
	return s.TracksPerCase
}

func (s System) samplesPerTrack() int {
	if s.SamplesPerTrack <= 0 {
		return 2000
	}
	return s.SamplesPerTrack
}

// Name implements propane.Target.
func (System) Name() string { return "MP3Gain" }

// Modules implements propane.Target.
func (System) Modules() []propane.ModuleInfo {
	return []propane.ModuleInfo{
		{
			Name: ModuleGAnalysis,
			Vars: []propane.VarDecl{
				{Name: "sumSquares", Kind: bitflip.Float64},
				{Name: "windowRMS", Kind: bitflip.Float64},
				{Name: "peak", Kind: bitflip.Float64},
				{Name: "loudness", Kind: bitflip.Float64},
				{Name: "windowIndex", Kind: bitflip.Int64},
				{Name: "sampleCount", Kind: bitflip.Int64},
			},
		},
		{
			Name: ModuleRGain,
			Vars: []propane.VarDecl{
				{Name: "targetDB", Kind: bitflip.Float64},
				{Name: "gainDB", Kind: bitflip.Float64},
				{Name: "scale", Kind: bitflip.Float64},
				{Name: "clipCount", Kind: bitflip.Int64},
				{Name: "trackIndex", Kind: bitflip.Int64},
			},
		},
	}
}

// TestCases implements propane.Target: each test case is a distinct set
// of tracks derived from the seed (§VI-C).
func (System) TestCases(n int, seed uint64) []propane.TestCase {
	tcs := make([]propane.TestCase, 0, n)
	for i := 0; i < n; i++ {
		tcs = append(tcs, propane.TestCase{
			ID:   i,
			Seed: seed ^ (uint64(i+1) * 0xd1342543de82ef95),
		})
	}
	return tcs
}

// Outcome is the observable output of one normalisation run: a digest
// of all normalised track contents.
type Outcome struct {
	OutputDigest uint64
}

// Failed implements propane.Target: a run fails when the normalised
// output files differ from the golden run (§VI-F).
func (System) Failed(_ propane.TestCase, golden, observed any) bool {
	g, ok1 := golden.(Outcome)
	o, ok2 := observed.(Outcome)
	if !ok1 || !ok2 {
		return true
	}
	return g != o
}

// analysis is the GAnalysis module state. peak and sampleCount persist
// across tracks (album peak and total samples analysed); the remaining
// fields are per-track working state.
type analysis struct {
	sumSquares  float64
	windowRMS   float64
	peak        float64 // album peak: live across the whole run
	loudness    float64 // result of the most recent track analysis
	windowIndex int64
	sampleCount int64 // total samples analysed (statistics)
}

func (a *analysis) varRefs() []propane.VarRef {
	return []propane.VarRef{
		propane.Float64Ref("sumSquares", &a.sumSquares),
		propane.Float64Ref("windowRMS", &a.windowRMS),
		propane.Float64Ref("peak", &a.peak),
		propane.Float64Ref("loudness", &a.loudness),
		propane.Int64Ref("windowIndex", &a.windowIndex),
		propane.Int64Ref("sampleCount", &a.sampleCount),
	}
}

// gain is the RGain module state. targetDB persists for the whole run
// (the normalisation target); the rest is per-track working state.
type gain struct {
	targetDB   float64
	gainDB     float64
	scale      float64
	clipCount  int64 // total clipped samples (statistics)
	trackIndex int64
}

func (g *gain) varRefs() []propane.VarRef {
	return []propane.VarRef{
		propane.Float64Ref("targetDB", &g.targetDB),
		propane.Float64Ref("gainDB", &g.gainDB),
		propane.Float64Ref("scale", &g.scale),
		propane.Int64Ref("clipCount", &g.clipCount),
		propane.Int64Ref("trackIndex", &g.trackIndex),
	}
}

// Run implements propane.Target: for each track, GAnalysis measures
// loudness (activating once per track), then RGain computes and applies
// the gain (activating once per track).
func (s System) Run(tc propane.TestCase, probe propane.Probe) (any, error) {
	return s.exec(s.newRunState(tc), probe, nil, -1, 0)
}

// runState is the complete resumable execution state of one run: the
// loop position, both module states, the rolling digests of all output
// emitted so far, and any value pending between paired visits.
type runState struct {
	track int // current track index, 0-based
	phase int // next phase to execute within the track (see exec)

	an analysis
	ga gain

	// Rolling digests of the normalised outputs folded in so far. d0 is
	// digest-compatible with the historical whole-output FNV-1a hash and
	// becomes Outcome.OutputDigest; d1 is an independent second stream
	// that exists only to strengthen Digest against collisions.
	d0, d1 uint64

	// pendingOut/pendingErr carry apply's result between the RGain Entry
	// and Exit visits. pendingOut is never mutated in place, so clones
	// may share it.
	pendingOut []byte
	pendingErr error

	// tracks is the synthesised input PCM, read-only for the whole run
	// and shared between clones.
	tracks [][]float64

	// VarRef slices over this struct's module fields, built once per
	// runState by refs and never cloned (a clone's refs point at the
	// clone's fields).
	anVars, gaVars []propane.VarRef
}

const (
	digestBasis0 = 14695981039346656037
	digestBasis1 = 0x9e3779b97f4a7c15
	digestPrime  = 1099511628211
)

func (s System) newRunState(tc propane.TestCase) *runState {
	return &runState{
		an:     analysis{},
		ga:     gain{targetDB: targetLoudness, scale: 1},
		d0:     digestBasis0,
		d1:     digestBasis1,
		tracks: s.generateTracks(tc.Seed),
	}
}

// foldOutput folds one completed track's output into the rolling
// digests, matching the historical per-track FNV-1a framing (bytes,
// then an 0xff terminator).
func (r *runState) foldOutput(out []byte) {
	d0, d1 := r.d0, r.d1
	for _, b := range out {
		d0 = (d0 ^ uint64(b)) * digestPrime
		d1 = (d1 ^ uint64(b)) * digestPrime
	}
	r.d0 = (d0 ^ 0xff) * digestPrime
	r.d1 = (d1 ^ 0xff) * digestPrime
}

// Clone implements propane.State. tracks and pendingOut are shared:
// both are read-only once created.
func (r *runState) Clone() propane.State {
	return &runState{
		track: r.track, phase: r.phase,
		an: r.an, ga: r.ga,
		d0: r.d0, d1: r.d1,
		pendingOut: r.pendingOut, pendingErr: r.pendingErr,
		tracks: r.tracks,
	}
}

// digestOmits lists the instrumented variables Digest leaves out: the
// write-only statistics. sampleCount and clipCount are only ever
// incremented, and nothing else reads them: not the output, not an
// error path, not another variable.
var digestOmits = []string{"sampleCount", "clipCount"}

// Digest implements propane.State, fingerprinting every field that can
// reach the run's outcome, an error or panic, or a variable outside
// digestOmits. The input tracks are a pure function of the test case
// and are excluded.
func (r *runState) Digest() propane.Digest {
	h := propane.NewStateHasher()
	h.Int(r.track)
	h.Int(r.phase)
	h.Float64(r.an.sumSquares)
	h.Float64(r.an.windowRMS)
	h.Float64(r.an.peak)
	h.Float64(r.an.loudness)
	h.Int64(r.an.windowIndex)
	h.Float64(r.ga.targetDB)
	h.Float64(r.ga.gainDB)
	h.Float64(r.ga.scale)
	h.Int64(r.ga.trackIndex)
	h.Uint64(r.d0)
	h.Uint64(r.d1)
	h.Bytes(r.pendingOut)
	h.Bool(r.pendingErr != nil)
	return h.Sum()
}

// refs returns the state's VarRef slices, building them on its first
// probed run. Golden and snapshot runs pass NopProbe and never call
// this, so they build no slices.
func (r *runState) refs() (anVars, gaVars []propane.VarRef) {
	if r.anVars == nil {
		r.anVars = r.an.varRefs()
		r.gaVars = r.ga.varRefs()
	}
	return r.anVars, r.gaVars
}

// Phase indices within one track. Each phase executes "everything up to
// and including the next instrumentation visit's work", so a snapshot
// taken at (track, phase) resumes with that phase's visit as the next
// visit issued.
const (
	phaseGAEntry = iota // GAnalysis Entry visit + analyse
	phaseGAExit         // GAnalysis Exit visit + trackIndex update
	phaseRGEntry        // RGain Entry visit + apply
	phaseRGExit         // RGain Exit visit + output fold
)

// exec advances the run from st's position to completion, issuing probe
// visits in the canonical order. With stopTrack >= 0 it instead returns
// (nil, nil) the moment st reaches (stopTrack, stopPhase) — before that
// phase's visit — which is how Snapshot positions a state. ctl, when
// non-nil, is consulted at the end of every completed track.
func (s System) exec(st *runState, probe propane.Probe, ctl *propane.RunControl, stopTrack, stopPhase int) (any, error) {
	_, nop := probe.(propane.NopProbe)
	var anVars, gaVars []propane.VarRef
	if !nop {
		anVars, gaVars = st.refs()
	}
	step := 0
	for st.track < len(st.tracks) {
		i := st.track
		pcm := st.tracks[i]

		if st.phase == phaseGAEntry {
			if st.track == stopTrack && stopPhase == phaseGAEntry {
				return nil, nil
			}
			// --- GAnalysis: loudness measurement for track i ---
			if !nop {
				probe.Visit(ModuleGAnalysis, propane.Entry, anVars)
			}
			s.analyse(&st.an, pcm)
			st.phase = phaseGAExit
		}
		if st.phase == phaseGAExit {
			if st.track == stopTrack && stopPhase == phaseGAExit {
				return nil, nil
			}
			if !nop {
				probe.Visit(ModuleGAnalysis, propane.Exit, anVars)
			}
			// --- RGain: gain computation and application for track i ---
			st.ga.trackIndex = int64(i)
			st.phase = phaseRGEntry
		}
		if st.phase == phaseRGEntry {
			if st.track == stopTrack && stopPhase == phaseRGEntry {
				return nil, nil
			}
			if !nop {
				probe.Visit(ModuleRGain, propane.Entry, gaVars)
			}
			st.pendingOut, st.pendingErr = st.ga.apply(st.an.loudness, st.an.peak, pcm)
			st.phase = phaseRGExit
		}
		if st.phase == phaseRGExit {
			if st.track == stopTrack && stopPhase == phaseRGExit {
				return nil, nil
			}
			if !nop {
				probe.Visit(ModuleRGain, propane.Exit, gaVars)
			}
			if st.pendingErr != nil {
				return nil, fmt.Errorf("mp3gain: track %d: %w", i, st.pendingErr)
			}
			st.foldOutput(st.pendingOut)
			st.pendingOut, st.pendingErr = nil, nil
			st.phase = phaseGAEntry
			st.track++
			step++
			if ctl.Checkpoint(step, st) {
				return nil, propane.ErrConverged
			}
		}
	}
	return Outcome{OutputDigest: st.d0}, nil
}

var _ propane.Forkable = System{}

// Snapshot implements propane.Forkable: every module location activates
// exactly once per track, so the activation-th visit of (module, at)
// occurs on track activation-1 at a fixed phase.
func (s System) Snapshot(tc propane.TestCase, module string, at propane.Location, activation int) (propane.State, bool, error) {
	var phase int
	switch {
	case module == ModuleGAnalysis && at == propane.Entry:
		phase = phaseGAEntry
	case module == ModuleGAnalysis && at == propane.Exit:
		phase = phaseGAExit
	case module == ModuleRGain && at == propane.Entry:
		phase = phaseRGEntry
	case module == ModuleRGain && at == propane.Exit:
		phase = phaseRGExit
	default:
		return nil, false, nil
	}
	if activation < 1 || activation > s.tracksPerCase() {
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
		return nil, fmt.Errorf("mp3gain: foreign state %T", st)
	}
	return s.exec(rs, probe, ctl, -1, 0)
}

// analyse computes the ReplayGain-style loudness of one track: RMS over
// 50 ms windows with the 95th-percentile window converted to dB relative
// to full scale. The album peak and total sample count accumulate across
// tracks; per-track working state is reset here, inside the module.
func (s System) analyse(an *analysis, pcm []float64) {
	an.windowIndex = 0
	var rmsValues []float64
	for start := 0; start+windowLen <= len(pcm); start += windowLen {
		an.sumSquares = 0
		for _, x := range pcm[start : start+windowLen] {
			an.sumSquares += x * x
			// The album peak is tracked at the tag resolution (1/256
			// steps), like mp3gain's 8-bit peak field.
			if a := math.Ceil(math.Abs(x)*256) / 256; a > an.peak {
				an.peak = a
			}
			an.sampleCount++
		}
		an.windowRMS = math.Sqrt(an.sumSquares / windowLen)
		rmsValues = append(rmsValues, an.windowRMS)
		an.windowIndex++
	}
	if len(rmsValues) == 0 {
		an.loudness = loudnessFloor
		return
	}
	sortFloats(rmsValues)
	idx := int(0.95 * float64(len(rmsValues)-1))
	ref := rmsValues[idx]
	if ref <= 0 {
		an.loudness = loudnessFloor
		return
	}
	an.loudness = 96 + 20*math.Log10(ref)
	if an.loudness < loudnessFloor {
		an.loudness = loudnessFloor
	}
}

// apply computes the track gain from the measured loudness and rescales
// the PCM, quantising to 16-bit output. The album peak caps the scale so
// normalisation never drives prior peaks past full scale (this is what
// makes the analyser's peak variable failure-critical). A gain outside
// the supported range is rejected, mirroring mp3gain's refusal to apply
// absurd gains.
func (g *gain) apply(loudness, albumPeak float64, pcm []float64) ([]byte, error) {
	g.gainDB = gainStepDB * math.Round((g.targetDB-loudness)/gainStepDB)
	if math.IsNaN(g.gainDB) || math.Abs(g.gainDB) > maxGainDB {
		return nil, fmt.Errorf("gain %.2f dB out of range", g.gainDB)
	}
	// Clip guard: back the gain off in whole steps until the album peak
	// stays within full scale. Like mp3gain's 8-bit peak tag, the peak
	// is quantised to 1/256 steps before use.
	if albumPeak > 0 {
		for g.gainDB > -maxGainDB && math.Pow(10, g.gainDB/20)*albumPeak > 1 {
			g.gainDB -= gainStepDB
		}
	}
	g.scale = math.Pow(10, g.gainDB/20)
	out := make([]byte, 0, len(pcm)*2)
	for _, x := range pcm {
		y := x * g.scale
		if y > 1 {
			y = 1
			g.clipCount++
		}
		if y < -1 {
			y = -1
			g.clipCount++
		}
		v := int16(y * 32767)
		out = append(out, byte(v), byte(uint16(v)>>8))
	}
	return out, nil
}

// generateTracks produces deterministic synthetic PCM: sine carriers at
// varying frequencies and amplitudes with additive noise, so tracks have
// distinct loudness levels for the normaliser to equalise.
func (s System) generateTracks(seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	tracks := make([][]float64, s.tracksPerCase())
	for t := range tracks {
		n := s.samplesPerTrack()
		amp := 0.05 + 0.6*rng.Float64()
		freq := 100 + rng.Float64()*900
		noise := 0.01 + 0.05*rng.Float64()
		pcm := make([]float64, n)
		for i := range pcm {
			pcm[i] = amp*math.Sin(2*math.Pi*freq*float64(i)/sampleRate) +
				noise*(rng.Float64()*2-1)
		}
		tracks[t] = pcm
	}
	return tracks
}

// sortFloats is a small insertion sort; window counts are tiny and this
// avoids pulling package sort into the per-run hot path.
func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
