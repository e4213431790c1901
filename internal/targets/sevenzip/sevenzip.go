package sevenzip

import (
	"encoding/binary"
	"fmt"

	"edem/internal/bitflip"
	"edem/internal/propane"
	"edem/internal/stats"
)

// Module names as they appear in Table II.
const (
	ModuleFHandle = "FHandle"
	ModuleLDecode = "LDecode"
)

// Archive format constants.
const (
	archMagic     = "7ZGO"
	headerVersion = 4
	codecLZSS     = 3
)

// System is the 7-Zip-analog target: each run archives a set of input
// files and then extracts them, recovering the original content
// (paper §VI-C). FilesPerCase controls the workload size; the paper
// uses 25 files per test case.
type System struct {
	// FilesPerCase is the number of files archived per test case
	// (default 10).
	FilesPerCase int
	// MeanFileSize is the approximate size of each synthetic file in
	// bytes (default 768).
	MeanFileSize int
}

var _ propane.Target = System{}

func (s System) filesPerCase() int {
	if s.FilesPerCase <= 0 {
		return 10
	}
	return s.FilesPerCase
}

func (s System) meanFileSize() int {
	if s.MeanFileSize <= 0 {
		return 768
	}
	return s.MeanFileSize
}

// Name implements propane.Target.
func (System) Name() string { return "7-Zip" }

// Modules implements propane.Target.
func (System) Modules() []propane.ModuleInfo {
	return []propane.ModuleInfo{
		{
			Name: ModuleFHandle,
			Vars: []propane.VarDecl{
				{Name: "fileIndex", Kind: bitflip.Int64},
				{Name: "origSize", Kind: bitflip.Int64},
				{Name: "compSize", Kind: bitflip.Int64},
				{Name: "fileCRC", Kind: bitflip.Int64},
				{Name: "archOffset", Kind: bitflip.Int64},
				{Name: "headerVer", Kind: bitflip.Int64},
				{Name: "codecID", Kind: bitflip.Int64},
				{Name: "bytesIn", Kind: bitflip.Int64},
				{Name: "bytesOut", Kind: bitflip.Int64},
				{Name: "filesDone", Kind: bitflip.Int64},
				{Name: "ratioPct", Kind: bitflip.Float64},
			},
		},
		{
			Name: ModuleLDecode,
			Vars: []propane.VarDecl{
				{Name: "winPos", Kind: bitflip.Int64},
				{Name: "matchDist", Kind: bitflip.Int64},
				{Name: "matchLen", Kind: bitflip.Int64},
				{Name: "flags", Kind: bitflip.Int64},
				{Name: "literals", Kind: bitflip.Int64},
				{Name: "matches", Kind: bitflip.Int64},
				{Name: "outCount", Kind: bitflip.Int64},
				{Name: "dictSize", Kind: bitflip.Int64},
			},
		},
	}
}

// TestCases implements propane.Target: each test case is a distinct set
// of input files derived from the seed (§VI-C).
func (System) TestCases(n int, seed uint64) []propane.TestCase {
	tcs := make([]propane.TestCase, 0, n)
	for i := 0; i < n; i++ {
		tcs = append(tcs, propane.TestCase{
			ID:   i,
			Seed: seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15),
		})
	}
	return tcs
}

// Outcome is the observable output of one archive-extract run.
type Outcome struct {
	// ArchiveDigest summarises the produced archive bytes.
	ArchiveDigest uint64
	// RecoveredDigest summarises the recovered file contents.
	RecoveredDigest uint64
}

// Failed implements propane.Target: a run fails when the archive or the
// recovered content differs from the golden run (§VI-F).
func (System) Failed(_ propane.TestCase, golden, observed any) bool {
	g, ok1 := golden.(Outcome)
	o, ok2 := observed.(Outcome)
	if !ok1 || !ok2 {
		return true
	}
	return g != o
}

// fhandle is the FHandle module state: the archive container layer.
type fhandle struct {
	fileIndex  int64
	origSize   int64
	compSize   int64
	fileCRC    int64 // content checksum (logged, not stored in the container)
	archOffset int64
	headerVer  int64
	codecID    int64
	bytesIn    int64   // cumulative input bytes (statistics only)
	bytesOut   int64   // cumulative output bytes (statistics only)
	filesDone  int64   // files completed so far (statistics only)
	ratioPct   float64 // running compression ratio (statistics only)
}

func (f *fhandle) varRefs() []propane.VarRef {
	return []propane.VarRef{
		propane.Int64Ref("fileIndex", &f.fileIndex),
		propane.Int64Ref("origSize", &f.origSize),
		propane.Int64Ref("compSize", &f.compSize),
		propane.Int64Ref("fileCRC", &f.fileCRC),
		propane.Int64Ref("archOffset", &f.archOffset),
		propane.Int64Ref("headerVer", &f.headerVer),
		propane.Int64Ref("codecID", &f.codecID),
		propane.Int64Ref("bytesIn", &f.bytesIn),
		propane.Int64Ref("bytesOut", &f.bytesOut),
		propane.Int64Ref("filesDone", &f.filesDone),
		propane.Float64Ref("ratioPct", &f.ratioPct),
	}
}

func (d *decoder) varRefs() []propane.VarRef {
	return []propane.VarRef{
		propane.Int64Ref("winPos", &d.winPos),
		propane.Int64Ref("matchDist", &d.matchDist),
		propane.Int64Ref("matchLen", &d.matchLen),
		propane.Int64Ref("flags", &d.flags),
		propane.Int64Ref("literals", &d.literals),
		propane.Int64Ref("matches", &d.matches),
		propane.Int64Ref("outCount", &d.outCount),
		propane.Int64Ref("dictSize", &d.dictSize),
	}
}

// Run implements propane.Target: archive all input files, then extract
// and verify them. FHandle activates once per file while archiving;
// LDecode activates once per file while extracting.
func (s System) Run(tc propane.TestCase, probe propane.Probe) (any, error) {
	return s.exec(s.newRunState(tc), probe, nil, -1, 0, 0)
}

// Stages of one run.
const (
	stageArchive = iota
	stageExtract
)

// runState is the complete resumable execution state of one run: the
// stage/file/phase position, both module states, the codec state (solid
// dictionary on both sides), the archive built so far with rolling
// digests, the rolling digests of recovered content, and any value
// pending between paired visits.
type runState struct {
	stage int // stageArchive or stageExtract
	file  int // current file index within the stage, 0-based
	phase int // next phase to execute for the file (see exec)

	fh  fhandle
	enc compressor
	dec decoder

	// archive is the container built during stageArchive and read-only
	// during stageExtract. archD0/archD1 are rolling digests of its
	// bytes, maintained on append so Digest never rehashes the archive.
	archive        []byte
	archD0, archD1 uint64

	// Extraction cursor: member count parsed from the superblock and
	// the current read offset.
	count   uint32
	readPos int

	// recD0 is digest-compatible with digest64 over the recovered files
	// (8-byte LE length prefix, then content, per file) and becomes
	// Outcome.RecoveredDigest; recD1 is an independent second stream for
	// Digest collision strength.
	recD0, recD1 uint64

	// Values pending between paired Entry/Exit visits. Neither is
	// mutated in place after creation, so clones may share them.
	pendingComp []byte // compressed member, FHandle Entry → Exit
	pendingData []byte // decompressed member, LDecode Entry → Exit
	pendingErr  error  // decompressFile error, LDecode Entry → Exit

	// files is the synthetic input set, read-only for the whole run and
	// shared between clones.
	files [][]byte

	// VarRef slices over this struct's module fields, built once per
	// runState by refs and never cloned (a clone's refs point at the
	// clone's fields).
	fhVars, decVars []propane.VarRef
}

const (
	digestBasis0 = 14695981039346656037
	digestBasis1 = 0x9e3779b97f4a7c15
	digestPrime  = 1099511628211
)

func (s System) newRunState(tc propane.TestCase) *runState {
	st := &runState{
		fh:      fhandle{headerVer: headerVersion, codecID: codecLZSS},
		dec:     *newDecoder(),
		archive: make([]byte, 0, 8*1024),
		archD0:  digestBasis0,
		archD1:  digestBasis1,
		recD0:   digestBasis0,
		recD1:   digestBasis1,
		files:   s.generateFiles(tc.Seed),
	}
	st.appendArch([]byte(archMagic))
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(st.files)))
	st.appendArch(tmp[:])
	st.padArch()
	return st
}

// appendArch appends bytes to the archive, folding them into the
// rolling archive digests.
func (r *runState) appendArch(p []byte) {
	r.archive = append(r.archive, p...)
	d0, d1 := r.archD0, r.archD1
	for _, b := range p {
		d0 = (d0 ^ uint64(b)) * digestPrime
		d1 = (d1 ^ uint64(b)) * digestPrime
	}
	r.archD0, r.archD1 = d0, d1
}

func (r *runState) appendArchU32(v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	r.appendArch(tmp[:])
}

func (r *runState) appendArchU64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	r.appendArch(tmp[:])
}

// padArch zero-pads the archive to the container's 64-byte block size.
func (r *runState) padArch() {
	var zeros [64]byte
	if rem := len(r.archive) % 64; rem != 0 {
		r.appendArch(zeros[:64-rem])
	}
}

// foldRecovered folds one recovered file into the rolling recovered
// digests using digest64's framing (LE length prefix, then content).
func (r *runState) foldRecovered(data []byte) {
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(data)))
	d0, d1 := r.recD0, r.recD1
	for _, b := range lenBuf {
		d0 = (d0 ^ uint64(b)) * digestPrime
		d1 = (d1 ^ uint64(b)) * digestPrime
	}
	for _, b := range data {
		d0 = (d0 ^ uint64(b)) * digestPrime
		d1 = (d1 ^ uint64(b)) * digestPrime
	}
	r.recD0, r.recD1 = d0, d1
}

// Clone implements propane.State. The compressor's solid dictionary is
// rewritten in place by compressFile and the archive is append-mutated
// during stageArchive, so both are deep-copied; during stageExtract the
// archive is read-only and shared (and the dictionary is already nil —
// exec drops it at the stage transition). files and the pending slices
// are read-only and always shared.
func (r *runState) Clone() propane.State {
	c := *r // dec's window is an array: copied by value
	c.fhVars, c.decVars = nil, nil
	if r.stage == stageArchive {
		c.enc.history = append([]byte(nil), r.enc.history...)
		c.archive = append(make([]byte, 0, cap(r.archive)), r.archive...)
	}
	return &c
}

// digestOmits lists the instrumented variables Digest leaves out: the
// write-only statistics. bytesIn, bytesOut, filesDone, literals and
// matches are only ever accumulated into, and ratioPct reads only
// bytesIn and bytesOut; nothing else reads any of them: not the
// archive, not the recovered files, not an error path, not another
// variable.
var digestOmits = []string{"bytesIn", "bytesOut", "filesDone", "ratioPct", "literals", "matches"}

// Digest implements propane.State, fingerprinting every field that can
// reach the run's outcome, an error or panic, or a variable outside
// digestOmits. The input files are a pure function of the test case and
// are excluded; the archive is covered by its rolling digests.
func (r *runState) Digest() propane.Digest {
	h := propane.NewStateHasher()
	h.Int(r.stage)
	h.Int(r.file)
	h.Int(r.phase)
	h.Int64(r.fh.fileIndex)
	h.Int64(r.fh.origSize)
	h.Int64(r.fh.compSize)
	h.Int64(r.fh.fileCRC)
	h.Int64(r.fh.archOffset)
	h.Int64(r.fh.headerVer)
	h.Int64(r.fh.codecID)
	h.Bytes(r.enc.history)
	h.Int64(r.dec.winPos)
	h.Int64(r.dec.matchDist)
	h.Int64(r.dec.matchLen)
	h.Int64(r.dec.flags)
	h.Int64(r.dec.outCount)
	h.Int64(r.dec.dictSize)
	h.Bytes(r.dec.window[:])
	h.Int(len(r.archive))
	h.Uint64(r.archD0)
	h.Uint64(r.archD1)
	h.Uint64(uint64(r.count))
	h.Int(r.readPos)
	h.Uint64(r.recD0)
	h.Uint64(r.recD1)
	h.Bytes(r.pendingComp)
	h.Bytes(r.pendingData)
	h.Bool(r.pendingErr != nil)
	return h.Sum()
}

// refs returns the state's VarRef slices, building them on its first
// probed run. Golden and snapshot runs pass NopProbe and never call
// this, so they build no slices.
func (r *runState) refs() (fhVars, decVars []propane.VarRef) {
	if r.fhVars == nil {
		r.fhVars = r.fh.varRefs()
		r.decVars = r.dec.varRefs()
	}
	return r.fhVars, r.decVars
}

// Phase indices within one per-file step of either stage. Each phase
// executes "everything up to and including the next instrumentation
// visit's work", so a snapshot taken at (stage, file, phase) resumes
// with that phase's visit as the next visit issued.
const (
	phaseEntry = iota // Entry visit + compress/decompress work
	phaseExit         // Exit visit + archive append / output fold
)

// exec advances the run from st's position to completion, issuing probe
// visits in the canonical order. With stopStage >= 0 it instead returns
// (nil, nil) the moment st reaches (stopStage, stopFile, stopPhase) —
// before that phase's visit — which is how Snapshot positions a state.
// ctl, when non-nil, is consulted at the end of every completed
// per-file step of either stage.
func (s System) exec(st *runState, probe propane.Probe, ctl *propane.RunControl, stopStage, stopFile, stopPhase int) (any, error) {
	_, nop := probe.(propane.NopProbe)
	var fhVars, decVars []propane.VarRef
	if !nop {
		fhVars, decVars = st.refs()
	}
	step := 0

	// --- Archiving stage (FHandle instrumented) ---
	if st.stage == stageArchive {
		for st.file < len(st.files) {
			i := st.file
			data := st.files[i]

			if st.phase == phaseEntry {
				if stopStage == stageArchive && st.file == stopFile && stopPhase == phaseEntry {
					return nil, nil
				}
				// Preconditions of the per-file container step.
				st.fh.fileIndex = int64(i)
				st.fh.origSize = int64(len(data))
				st.fh.fileCRC = int64(crc8fnv(data))
				st.fh.compSize = 0
				st.fh.archOffset = int64(len(st.archive))

				if !nop {
					probe.Visit(ModuleFHandle, propane.Entry, fhVars)
				}

				st.pendingComp = st.enc.compressFile(data)
				st.fh.compSize = int64(len(st.pendingComp))
				st.fh.bytesIn += st.fh.origSize
				st.fh.bytesOut += st.fh.compSize
				st.fh.filesDone++
				if st.fh.bytesIn > 0 {
					st.fh.ratioPct = 100 * float64(st.fh.bytesOut) / float64(st.fh.bytesIn)
				}
				st.phase = phaseExit
			}
			if st.phase == phaseExit {
				if stopStage == stageArchive && st.file == stopFile && stopPhase == phaseExit {
					return nil, nil
				}
				if !nop {
					probe.Visit(ModuleFHandle, propane.Exit, fhVars)
				}

				// The header is written from module state AFTER the exit
				// point, so exit-time corruption propagates into the
				// archive.
				st.appendArchU32(uint32(st.fh.headerVer))
				st.appendArchU32(uint32(st.fh.codecID))
				st.appendArchU64(uint64(st.fh.origSize))
				st.appendArchU64(uint64(st.fh.compSize))
				st.appendArchU64(uint64(st.fh.archOffset))
				st.appendArch(st.pendingComp)
				st.padArch()
				st.pendingComp = nil
				st.phase = phaseEntry
				st.file++
				step++
				if ctl.Checkpoint(step, st) {
					return nil, propane.ErrConverged
				}
			}
		}

		// --- Stage transition: open the archive for extraction ---
		if len(st.archive) < len(archMagic)+4 || string(st.archive[:4]) != archMagic {
			return nil, fmt.Errorf("sevenzip: bad archive magic")
		}
		st.count = binary.LittleEndian.Uint32(st.archive[len(archMagic):])
		st.readPos = 64 // the superblock is padded to one container block
		st.stage = stageExtract
		st.file = 0
		st.phase = phaseEntry
		// The solid dictionary is dead once the archive is sealed: the
		// extraction stage never reads it, so dropping it here keeps it
		// out of every extract-stage Clone and Digest.
		st.enc.history = nil
	}

	// --- Extraction stage (LDecode instrumented) ---
	for st.file < int(st.count) {
		i := st.file

		if st.phase == phaseEntry {
			if stopStage == stageExtract && st.file == stopFile && stopPhase == phaseEntry {
				return nil, nil
			}
			if st.readPos+32 > len(st.archive) {
				return nil, fmt.Errorf("sevenzip: truncated header for file %d", i)
			}
			ver := binary.LittleEndian.Uint32(st.archive[st.readPos:])
			codec := binary.LittleEndian.Uint32(st.archive[st.readPos+4:])
			origSize := int64(binary.LittleEndian.Uint64(st.archive[st.readPos+8:]))
			compSize := int64(binary.LittleEndian.Uint64(st.archive[st.readPos+16:]))
			offset := int64(binary.LittleEndian.Uint64(st.archive[st.readPos+24:]))
			st.readPos += 32
			if ver != headerVersion {
				return nil, fmt.Errorf("sevenzip: unsupported header version %d", ver)
			}
			if codec != codecLZSS {
				return nil, fmt.Errorf("sevenzip: unsupported codec %d", codec)
			}
			if offset != int64(st.readPos-32) {
				return nil, fmt.Errorf("sevenzip: bad offset %d for file %d", offset, i)
			}
			if compSize < 0 || int64(st.readPos)+compSize > int64(len(st.archive)) {
				return nil, fmt.Errorf("sevenzip: bad compressed size %d", compSize)
			}
			comp := st.archive[st.readPos : int64(st.readPos)+compSize]
			st.readPos += int(compSize)
			st.readPos = (st.readPos + 63) / 64 * 64

			if !nop {
				probe.Visit(ModuleLDecode, propane.Entry, decVars)
			}
			st.pendingData, st.pendingErr = st.dec.decompressFile(comp, origSize)
			st.phase = phaseExit
		}
		if st.phase == phaseExit {
			if stopStage == stageExtract && st.file == stopFile && stopPhase == phaseExit {
				return nil, nil
			}
			if !nop {
				probe.Visit(ModuleLDecode, propane.Exit, decVars)
			}
			if st.pendingErr != nil {
				return nil, fmt.Errorf("sevenzip: file %d: %w", i, st.pendingErr)
			}
			st.foldRecovered(st.pendingData)
			st.pendingData, st.pendingErr = nil, nil
			st.phase = phaseEntry
			st.file++
			step++
			if ctl.Checkpoint(step, st) {
				return nil, propane.ErrConverged
			}
		}
	}

	return Outcome{
		ArchiveDigest:   digest64(st.archive),
		RecoveredDigest: st.recD0,
	}, nil
}

var _ propane.Forkable = System{}

// Snapshot implements propane.Forkable: FHandle activates once per file
// while archiving and LDecode once per file while extracting, so the
// activation-th visit of (module, at) occurs at a fixed (stage, file,
// phase) position.
func (s System) Snapshot(tc propane.TestCase, module string, at propane.Location, activation int) (propane.State, bool, error) {
	var stage int
	switch module {
	case ModuleFHandle:
		stage = stageArchive
	case ModuleLDecode:
		stage = stageExtract
	default:
		return nil, false, nil
	}
	phase := phaseEntry
	if at == propane.Exit {
		phase = phaseExit
	}
	if activation < 1 || activation > s.filesPerCase() {
		return nil, false, nil
	}
	file := activation - 1
	st := s.newRunState(tc)
	if _, err := s.exec(st, propane.NopProbe{}, nil, stage, file, phase); err != nil {
		return nil, false, err
	}
	if st.stage != stage || st.file != file || st.phase != phase {
		return nil, false, nil
	}
	return st, true, nil
}

// RunFrom implements propane.Forkable.
func (s System) RunFrom(st propane.State, probe propane.Probe, ctl *propane.RunControl) (any, error) {
	rs, ok := st.(*runState)
	if !ok {
		return nil, fmt.Errorf("sevenzip: foreign state %T", st)
	}
	return s.exec(rs, probe, ctl, -1, 0, 0)
}

// generateFiles produces the deterministic synthetic file set for a
// test case: text-like content with repeated phrases (compressible) and
// a binary tail (less compressible), sizes varying around MeanFileSize.
func (s System) generateFiles(seed uint64) [][]byte {
	rng := stats.NewRNG(seed)
	words := []string{
		"fault", "injection", "detector", "predicate", "module",
		"archive", "window", "decode", "entropy", "golden",
	}
	files := make([][]byte, s.filesPerCase())
	for i := range files {
		// Sizes are padded to 64-byte blocks, as the container stores
		// block-aligned members.
		size := s.meanFileSize()/2 + rng.Intn(s.meanFileSize())
		size = (size + 63) / 64 * 64
		buf := make([]byte, 0, size+16)
		for len(buf) < size*3/4 {
			w := words[rng.Intn(len(words))]
			buf = append(buf, w...)
			buf = append(buf, ' ')
		}
		for len(buf) < size {
			buf = append(buf, byte(rng.Uint64()))
		}
		files[i] = buf
	}
	return files
}
