// Package predicate turns induced decision trees into error detection
// predicates and wraps them as runtime assertions (detectors). This is
// the payoff of the methodology: "implementing an error detection
// mechanism based on a model generated using our methodology reduces to
// the, almost trivial, process of interpreting a decision tree" (paper
// §VIII). A predicate is the disjunction of the conjunctive paths that
// reach failure-labelled leaves (Figure 2 read as a conjunction of
// disjunctions).
//
// Role in the methodology: the output of Step 4 — the refined tree
// becomes the deployable detector here — and the subject of the §VII-D
// re-validation. Ownership/concurrency: a Predicate is immutable once
// built and safe for concurrent evaluation. A Detector accumulates
// visit counts and alarm indices under an internal mutex, so concurrent
// Visit calls are safe — but activation numbering is then
// scheduling-dependent, so each deterministic run (each injection
// campaign cell) should still own its own Detector instance.
package predicate

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"edem/internal/mining/tree"
)

// Op is a comparison operator of an atomic condition.
type Op int

// Atomic condition operators.
const (
	LE Op = iota + 1 // value <= threshold
	GT               // value >  threshold
	EQ               // value == threshold; FromTree never emits it
	NE               // value != threshold; FromTree never emits it
)

// String returns the surface syntax of the operator.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GT:
		return ">"
	case EQ:
		return "="
	case NE:
		return "!="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// MarshalJSON encodes the operator as its surface syntax.
func (o Op) MarshalJSON() ([]byte, error) { return json.Marshal(o.String()) }

// UnmarshalJSON decodes the surface syntax.
func (o *Op) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "<=":
		*o = LE
	case ">":
		*o = GT
	case "=":
		*o = EQ
	case "!=":
		*o = NE
	default:
		return fmt.Errorf("predicate: unknown operator %q", s)
	}
	return nil
}

// Atom is one comparison over a single variable.
type Atom struct {
	// Var is the variable (attribute) name.
	Var string `json:"var"`
	// Index is the variable's position in the sampled state vector.
	Index int `json:"index"`
	Op    Op  `json:"op"`
	// Threshold is the bound (LE/GT) or the compared value (EQ/NE).
	Threshold float64 `json:"threshold"`
}

// Eval tests the atom against a state vector. A NaN value fails every
// atom (a detector cannot flag what it cannot read).
func (a Atom) Eval(values []float64) bool {
	if a.Index < 0 || a.Index >= len(values) {
		return false
	}
	v := values[a.Index]
	if math.IsNaN(v) {
		return false
	}
	switch a.Op {
	case LE:
		return v <= a.Threshold
	case GT:
		return v > a.Threshold
	case EQ:
		return v == a.Threshold
	case NE:
		return v != a.Threshold
	default:
		return false
	}
}

func (a Atom) String() string {
	return fmt.Sprintf("%s %s %g", a.Var, a.Op, a.Threshold)
}

// Clause is a conjunction of atoms.
type Clause []Atom

// Eval reports whether every atom holds.
func (c Clause) Eval(values []float64) bool {
	for _, a := range c {
		if !a.Eval(values) {
			return false
		}
	}
	return true
}

func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.String()
	}
	return strings.Join(parts, " AND ")
}

// Predicate is a DNF error detection predicate: it flags a state as
// failure-inducing when any clause holds.
type Predicate struct {
	// Name identifies the predicate (usually the dataset it was learnt
	// from, e.g. "FG-A2").
	Name string `json:"name"`
	// Vars names the state vector positions the atoms index.
	Vars []string `json:"vars"`
	// Clauses is the disjunction of conjunctive failure paths.
	Clauses []Clause `json:"clauses"`
}

// ErrNoTree is returned when extraction is given a nil tree.
var ErrNoTree = errors.New("predicate: nil tree")

// FromTree extracts the predicate from a decision tree: every root-to-
// leaf path whose leaf predicts positiveClass becomes one conjunctive
// clause. Redundant bounds within a clause are merged (two "x <= t"
// atoms keep the tighter t) and contradictory clauses are dropped.
func FromTree(t *tree.Tree, positiveClass int, name string) (*Predicate, error) {
	if t == nil || t.Root == nil {
		return nil, ErrNoTree
	}
	vars := make([]string, len(t.Attrs))
	for i, a := range t.Attrs {
		vars[i] = a.Name
	}
	p := &Predicate{Name: name, Vars: vars}
	var walk func(n *tree.Node, path Clause)
	walk = func(n *tree.Node, path Clause) {
		if n.IsLeaf() {
			if n.Class == positiveClass {
				if clause, ok := simplify(path); ok {
					p.Clauses = append(p.Clauses, clause)
				}
			}
			return
		}
		attr := t.Attrs[n.Attr]
		for i, ch := range n.Children {
			op := LE
			if i == 1 {
				op = GT
			}
			atom := Atom{Var: attr.Name, Index: n.Attr, Op: op, Threshold: n.Threshold}
			next := make(Clause, len(path), len(path)+1)
			copy(next, path)
			next = append(next, atom)
			walk(ch, next)
		}
	}
	walk(t.Root, nil)
	return p, nil
}

// simplify merges redundant numeric bounds per variable and reports
// whether the clause is satisfiable.
func simplify(c Clause) (Clause, bool) {
	type bounds struct {
		hasLE, hasGT bool
		le, gt       float64
	}
	numeric := map[int]*bounds{}
	eq := map[int]float64{}
	var out Clause
	for _, a := range c {
		switch a.Op {
		case LE:
			b := numeric[a.Index]
			if b == nil {
				b = &bounds{le: math.Inf(1), gt: math.Inf(-1)}
				numeric[a.Index] = b
			}
			if !b.hasLE || a.Threshold < b.le {
				b.le = a.Threshold
			}
			b.hasLE = true
		case GT:
			b := numeric[a.Index]
			if b == nil {
				b = &bounds{le: math.Inf(1), gt: math.Inf(-1)}
				numeric[a.Index] = b
			}
			if !b.hasGT || a.Threshold > b.gt {
				b.gt = a.Threshold
			}
			b.hasGT = true
		case EQ:
			if prev, ok := eq[a.Index]; ok && prev != a.Threshold {
				return nil, false // contradictory equalities
			}
			eq[a.Index] = a.Threshold
			out = append(out, a)
		default:
			out = append(out, a)
		}
	}
	for _, a := range c {
		if a.Op != LE && a.Op != GT {
			continue
		}
		b := numeric[a.Index]
		if b == nil {
			continue
		}
		if b.hasLE && b.hasGT && b.gt >= b.le {
			return nil, false // empty interval
		}
		if b.hasLE && a.Op == LE && a.Threshold == b.le {
			out = append(out, a)
			b.hasLE = false // emit once
		}
		if b.hasGT && a.Op == GT && a.Threshold == b.gt {
			out = append(out, a)
			b.hasGT = false
		}
	}
	return out, true
}

// Eval flags the state as failure-inducing when any clause holds.
func (p *Predicate) Eval(values []float64) bool {
	for _, c := range p.Clauses {
		if c.Eval(values) {
			return true
		}
	}
	return false
}

// Complexity is the total number of atomic conditions.
func (p *Predicate) Complexity() int {
	n := 0
	for _, c := range p.Clauses {
		n += len(c)
	}
	return n
}

// String renders the predicate as readable DNF.
func (p *Predicate) String() string {
	if len(p.Clauses) == 0 {
		return fmt.Sprintf("%s: FALSE (no failure paths)", p.Name)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: flag erroneous iff\n", p.Name)
	for i, c := range p.Clauses {
		if i > 0 {
			sb.WriteString("  OR\n")
		}
		fmt.Fprintf(&sb, "  (%s)\n", c.String())
	}
	return sb.String()
}

// plainPredicate strips the TextMarshaler method so JSON encoding does
// not recurse back into MarshalText.
type plainPredicate Predicate

// MarshalText implements encoding.TextMarshaler via JSON for stable
// on-disk detector artefacts.
func (p *Predicate) MarshalText() ([]byte, error) {
	return json.MarshalIndent((*plainPredicate)(p), "", "  ")
}

// Parse decodes a predicate serialised by MarshalText and refuses one
// that fails CheckVars.
func Parse(data []byte) (*Predicate, error) {
	var p plainPredicate
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("predicate: parse: %w", err)
	}
	out := Predicate(p)
	if err := out.CheckVars(); err != nil {
		return nil, err
	}
	return &out, nil
}

// CheckVars reports an atom that reads a variable other than the one it
// names: evaluation reads by index alone, so an atom whose Index lies
// within Vars must name Vars[Index]. An atom indexing outside Vars
// reads nothing (it fails on every state of the predicate's arity) and
// passes, as does every atom of a predicate with no Vars. FromTree and
// RangeCheck build predicates that pass.
func (p *Predicate) CheckVars() error {
	for ci, c := range p.Clauses {
		for _, a := range c {
			if a.Index >= 0 && a.Index < len(p.Vars) && a.Var != p.Vars[a.Index] {
				return fmt.Errorf("predicate %s: clause %d: atom names %q but index %d is %q", p.Name, ci, a.Var, a.Index, p.Vars[a.Index])
			}
		}
	}
	return nil
}
