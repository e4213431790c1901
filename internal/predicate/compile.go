package predicate

import (
	"errors"
	"fmt"
	"math"
)

// Compilation lowers the Clause/Atom AST into a flat, branch-lean
// threshold program: the clauses become a prefix tree whose nodes sit in
// one contiguous table in depth-first order. Clauses that begin with the
// same atoms share those nodes, so an atom common to many failure paths
// is tested once per sample instead of once per clause. Evaluation is
// one tight loop over the table — no interface dispatch, no per-clause
// slice headers chased through the heap, no allocation — which is what
// lets the serving runtime walk a detector per sample at wire speed
// (the "efficient" in the paper's title, paid at build time in the
// ZOFI spirit: cost at compile, not per evaluation).
//
// The compiled form is required to be bit-identical to the interpreted
// Predicate.Eval on every input, including NaN (missing) values, ±Inf
// thresholds and state vectors whose length disagrees with the
// predicate's arity. Atoms have no side effects, so the value of the
// disjunction does not depend on the order its atoms are tested in,
// and sharing prefixes cannot change it. The differential suite and
// FuzzCompiledEval pin this equivalence. The interpreter remains only
// as that oracle: every evaluator (Detector, the serving runtime, and
// the offline scorers in core that re-validate, time and compare
// detectors) runs the compiled form, and a predicate Compile refuses is
// refused where it enters — NewDetector, bundle validation at load,
// reload and export, and each offline scorer before it runs a campaign.

// opcode is the compiled operator encoding. It deliberately mirrors Op
// but is its own 8-bit type so the comparison table stays dense.
type opcode uint8

const (
	opLE opcode = iota // value <= constant
	opGT               // value >  constant
	opEQ               // value == constant
	opNE               // value != constant
)

// Program is a compiled predicate: a per-detector prefix tree of
// comparisons laid out as one table. A Program is immutable once built
// and safe for unrestricted concurrent evaluation.
type Program struct {
	// Name and Arity mirror the source predicate (Arity = len(Vars)).
	Name  string
	Arity int

	// nodes is the prefix tree of the live clauses in depth-first order.
	// A path from a root to a leaf is one clause; clauses that begin
	// with identical atoms share the nodes of that prefix, and a clause
	// that extends a shorter one is dropped, since the shorter clause
	// fires whenever it does.
	nodes []node
	// vacuous records a live empty clause, which fires on every input.
	vacuous bool
	// atoms counts the atoms of the live source clauses.
	atoms int
}

// node is one atom of the prefix tree. A node whose atom holds passes
// to its first child, the next node in the table, or fires the program
// when it is a leaf (skip == its own index + 1, no children). A node
// whose atom fails jumps to skip, just past its subtree: its next
// sibling, or an ancestor's, or the end of the table.
type node struct {
	c    float64 // the threshold
	idx  uint32  // the state-vector position
	skip int32
	op   opcode
}

// ErrNoPredicate is returned by Compile for a nil predicate.
var ErrNoPredicate = errors.New("predicate: compile: nil predicate")

// trieNode is a prefix-tree node under construction.
type trieNode struct {
	atom node
	end  bool // a clause ends here
	kids []*trieNode
}

// Compile lowers a predicate into a prefix-shared threshold program. It
// fails on a nil predicate, on operators the table cannot encode (the
// zero Op or corrupt values) and on indices beyond the int32 index
// column; callers refuse such a predicate outright. Atoms whose index
// can never be in range (negative) make their clause unsatisfiable —
// exactly as in the interpreter, where such an atom always fails — so
// the whole clause is dropped at compile time. Two atoms share a node
// when their index, operator and threshold bits all match.
func Compile(p *Predicate) (*Program, error) {
	if p == nil {
		return nil, ErrNoPredicate
	}
	prog := &Program{Name: p.Name, Arity: len(p.Vars)}
	var root trieNode
	live := make([]node, 0, 16)
	for ci, c := range p.Clauses {
		live = live[:0]
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
			live = append(live, node{c: a.Threshold, idx: uint32(a.Index), op: op})
		}
		if dead {
			continue
		}
		prog.atoms += len(live)
		root.insert(live)
	}
	prog.vacuous = root.end
	if !prog.vacuous {
		for _, k := range root.kids {
			prog.nodes = k.flatten(prog.nodes)
		}
	}
	return prog, nil
}

// insert adds one clause below t, sharing the nodes of any existing
// prefix. A clause that passes through a clause end is subsumed and
// adds nothing; a clause that ends on a node prunes what lies below it.
func (t *trieNode) insert(clause []node) {
	for _, a := range clause {
		if t.end {
			return
		}
		var next *trieNode
		for _, k := range t.kids {
			if k.atom.idx == a.idx && k.atom.op == a.op &&
				math.Float64bits(k.atom.c) == math.Float64bits(a.c) {
				next = k
				break
			}
		}
		if next == nil {
			next = &trieNode{atom: a}
			t.kids = append(t.kids, next)
		}
		t = next
	}
	t.end, t.kids = true, nil
}

// flatten appends t's subtree to nodes in depth-first order, setting
// each node's skip past its subtree.
func (t *trieNode) flatten(nodes []node) []node {
	i := len(nodes)
	nodes = append(nodes, t.atom)
	for _, k := range t.kids {
		nodes = k.flatten(nodes)
	}
	nodes[i].skip = int32(len(nodes))
	return nodes
}

// Eval runs the compiled program over a state vector. It is
// bit-identical to the interpreted Predicate.Eval: NaN values (the
// missing marker) fail every atom, as do indices outside the vector.
// Zero allocations per call.
func (p *Program) Eval(values []float64) bool {
	if p.vacuous {
		return true
	}
	nodes := p.nodes
	for i := 0; i < len(nodes); {
		n := &nodes[i]
		ok := false
		if ix := uint(n.idx); ix < uint(len(values)) {
			// A NaN value fails <=, > and == by IEEE comparison; only !=
			// must test for it.
			v := values[ix]
			switch n.op {
			case opLE:
				ok = v <= n.c
			case opGT:
				ok = v > n.c
			case opEQ:
				ok = v == n.c
			default: // opNE
				ok = v != n.c && v == v
			}
		}
		switch {
		case !ok:
			i = int(n.skip)
		case int(n.skip) == i+1:
			return true // a leaf: its clause holds
		default:
			i++
		}
	}
	return false
}

// Atoms reports the number of atoms in the satisfiable source clauses
// (compile-time-dead clauses are not counted). It counts an atom once
// per clause it appears in, however many clauses share its node.
func (p *Program) Atoms() int { return p.atoms }
