package predicate

import (
	"errors"
	"fmt"
	"math"
)

// Compilation lowers the Clause/Atom AST into a flat, branch-lean
// threshold program: all atoms of all clauses live in three contiguous
// parallel arrays (attribute index, operator, constant) with a fourth
// array marking where each clause's atom run ends. Evaluation is one
// tight loop over those arrays — no interface dispatch, no per-clause
// slice headers chased through the heap, no allocation — which is what
// lets the serving runtime walk a detector per sample at wire speed
// (the "efficient" in the paper's title, paid at build time in the
// ZOFI spirit: cost at compile, not per evaluation).
//
// The compiled form is required to be bit-identical to the interpreted
// Predicate.Eval on every input, including NaN (missing) values, ±Inf
// thresholds and state vectors whose length disagrees with the
// predicate's arity. The differential suite and FuzzCompiledEval pin
// this equivalence. The interpreter remains only as that oracle: every
// evaluator (Detector, the serving runtime, and the offline scorers in
// core that re-validate, time and compare detectors) runs the compiled
// form, and a predicate Compile refuses is refused where it enters —
// NewDetector, bundle validation at load, reload and export, and each
// offline scorer before it runs a campaign.

// opcode is the compiled operator encoding. It deliberately mirrors Op
// but is its own 8-bit type so the comparison table stays dense.
type opcode uint8

const (
	opLE opcode = iota // value <= constant
	opGT               // value >  constant
	opEQ               // value == constant
	opNE               // value != constant
)

// Program is a compiled predicate: a contiguous per-detector comparison
// table evaluated clause by clause. A Program is immutable once built
// and safe for unrestricted concurrent evaluation.
type Program struct {
	// Name and Arity mirror the source predicate (Arity = len(Vars)).
	Name  string
	Arity int

	// The atom table, one entry per atom across all clauses, in clause
	// order. idx is the state-vector position, ops the comparison,
	// consts the threshold.
	ops    []opcode
	idx    []int32
	consts []float64
	// clauseEnds[k] is the end (exclusive) of clause k's atom run in the
	// atom table; clause k starts at clauseEnds[k-1] (0 for k = 0). An
	// empty run is a vacuously-true clause, matching Clause.Eval.
	clauseEnds []int32
}

// ErrNoPredicate is returned by Compile for a nil predicate.
var ErrNoPredicate = errors.New("predicate: compile: nil predicate")

// Compile lowers a predicate into a flat threshold program. It fails on
// a nil predicate, on operators the table cannot encode (the zero Op or
// corrupt values) and on indices beyond the int32 index column; callers
// refuse such a predicate outright. Atoms whose index
// can never be in range (negative) make their clause unsatisfiable —
// exactly as in the interpreter, where such an atom always fails — so
// the whole clause is dropped at compile time.
func Compile(p *Predicate) (*Program, error) {
	if p == nil {
		return nil, ErrNoPredicate
	}
	prog := &Program{Name: p.Name, Arity: len(p.Vars)}
	n := 0
	for _, c := range p.Clauses {
		n += len(c)
	}
	prog.ops = make([]opcode, 0, n)
	prog.idx = make([]int32, 0, n)
	prog.consts = make([]float64, 0, n)
	prog.clauseEnds = make([]int32, 0, len(p.Clauses))
	for ci, c := range p.Clauses {
		dead := false
		for _, a := range c {
			if a.Index < 0 {
				dead = true // always-false atom: the clause can never fire
				continue
			}
			if a.Index > math.MaxInt32 {
				// The index column is int32; refusing keeps the compiled
				// form exactly equivalent instead of silently wrapping.
				return nil, fmt.Errorf("predicate: compile %s: clause %d has index %d beyond the table range", p.Name, ci, a.Index)
			}
			var op opcode
			switch a.Op {
			case LE:
				op = opLE
			case GT:
				op = opGT
			case EQ:
				op = opEQ
			case NE:
				op = opNE
			default:
				return nil, fmt.Errorf("predicate: compile %s: clause %d has unsupported operator %v", p.Name, ci, a.Op)
			}
			if !dead {
				prog.ops = append(prog.ops, op)
				prog.idx = append(prog.idx, int32(a.Index))
				prog.consts = append(prog.consts, a.Threshold)
			}
		}
		if dead {
			// Rewind any atoms emitted before the dead one was seen.
			last := 0
			if len(prog.clauseEnds) > 0 {
				last = int(prog.clauseEnds[len(prog.clauseEnds)-1])
			}
			prog.ops = prog.ops[:last]
			prog.idx = prog.idx[:last]
			prog.consts = prog.consts[:last]
			continue
		}
		prog.clauseEnds = append(prog.clauseEnds, int32(len(prog.ops)))
	}
	return prog, nil
}

// Eval runs the compiled program over a state vector. It is
// bit-identical to the interpreted Predicate.Eval: NaN values (the
// missing marker) fail every atom, as do indices outside the vector.
// Zero allocations per call.
func (p *Program) Eval(values []float64) bool {
	start := int32(0)
	for _, end := range p.clauseEnds {
		matched := true
		for k := start; k < end; k++ {
			ix := p.idx[k]
			if int(ix) >= len(values) {
				matched = false
				break
			}
			v := values[ix]
			if v != v { // NaN: missing values fail every atom
				matched = false
				break
			}
			c := p.consts[k]
			var ok bool
			switch p.ops[k] {
			case opLE:
				ok = v <= c
			case opGT:
				ok = v > c
			case opEQ:
				ok = v == c
			default: // opNE
				ok = v != c
			}
			if !ok {
				matched = false
				break
			}
		}
		if matched {
			return true
		}
		start = end
	}
	return false
}

// Atoms reports the number of atoms in the comparison table (satisfiable
// clauses only — compile-time-dead clauses are not counted).
func (p *Program) Atoms() int { return len(p.ops) }
