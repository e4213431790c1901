// Package tree implements C4.5 decision tree induction (Quinlan [34]),
// the symbolic pattern learning algorithm used by the paper to generate
// error detection predicates: gain-ratio splitting with the average-gain
// gate, MDL-corrected continuous thresholds, and pessimistic error-based
// pruning. It trains on numeric, NaN-free rows of weight 1, the domain
// propane.ToDataset produces, so Quinlan's missing-value and nominal
// machinery is absent (DESIGN.md §10).
//
// Role in the methodology: the model generator of Step 3 and, re-run
// per sampling configuration, of Step 4; its trees are what
// internal/predicate reads off as detectors. Concurrency: Learner is an
// empty value safe to share; every fit (FitTree,
// FitTreeView, FitView) constructs its own builder and takes its own
// pooled partition scratch, so concurrent fits from fold and grid
// workers never share mutable state; a fitted *Node tree is immutable
// and safe for concurrent classification. A fit reads the training
// data without mutating it and may retain store-backed sorted orders
// only for the duration of the call.
package tree

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"edem/internal/dataset"
	"edem/internal/mining"
)

// Node is one node of an induced decision tree. Internal nodes test an
// attribute against a binary threshold; every node carries the training
// class distribution observed at it, used for classification and
// pruning.
type Node struct {
	// Attr is the tested attribute index, or -1 for a leaf.
	Attr int
	// Threshold splits the attribute: <= goes to Children[0], > to
	// Children[1].
	Threshold float64
	// Children are the two branch subtrees. Nil for leaves.
	Children []*Node

	// Dist is the training class count distribution at this node.
	Dist []float64
	// Class is the majority class at this node.
	Class int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Attr < 0 }

// Tree is an induced C4.5 model.
type Tree struct {
	Root        *Node
	Attrs       []dataset.Attribute
	ClassValues []string
}

var (
	_ mining.Classifier = (*Tree)(nil)
	_ mining.Sizer      = (*Tree)(nil)
)

// Classify descends to the one leaf the instance reaches and returns
// the argmax of its training distribution, ties going to the lower
// class, or the leaf's Class when it saw no training rows. A NaN value
// fails every <= test and so takes the > branch.
func (t *Tree) Classify(values []float64) int {
	n := t.Root
	for !n.IsLeaf() {
		if values[n.Attr] <= n.Threshold {
			n = n.Children[0]
		} else {
			n = n.Children[1]
		}
	}
	if sum(n.Dist) <= 0 {
		return n.Class
	}
	return argmax(n.Dist)
}

// Size returns the total number of nodes (decision plus leaf), the
// complexity measure of the Comp column in Tables III and IV.
func (t *Tree) Size() int { return countNodes(t.Root) }

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return countLeaves(t.Root) }

// Depth returns the maximum root-to-leaf depth (a single leaf has
// depth 0).
func (t *Tree) Depth() int { return depth(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, ch := range n.Children {
		total += countNodes(ch)
	}
	return total
}

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	total := 0
	for _, ch := range n.Children {
		total += countLeaves(ch)
	}
	return total
}

func depth(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	d := 0
	for _, ch := range n.Children {
		if cd := depth(ch); cd > d {
			d = cd
		}
	}
	return d + 1
}

// String renders the tree in the indented style of Figure 2.
func (t *Tree) String() string {
	var sb strings.Builder
	t.render(&sb, t.Root, 0)
	return sb.String()
}

func (t *Tree) render(sb *strings.Builder, n *Node, indent int) {
	if n.IsLeaf() {
		fmt.Fprintf(sb, ": %s (%s)", t.ClassValues[n.Class], formatDist(n.Dist, n.Class))
		return
	}
	attr := t.Attrs[n.Attr]
	for i, ch := range n.Children {
		sb.WriteByte('\n')
		for k := 0; k < indent; k++ {
			sb.WriteString("|   ")
		}
		op := "<="
		if i == 1 {
			op = ">"
		}
		fmt.Fprintf(sb, "%s %s %s", attr.Name, op, strconv.FormatFloat(n.Threshold, 'g', 6, 64))
		t.render(sb, ch, indent+1)
	}
}

func formatDist(dist []float64, class int) string {
	total, correct := 0.0, 0.0
	for c, w := range dist {
		total += w
		if c == class {
			correct = w
		}
	}
	wrong := total - correct
	if wrong < 1e-9 {
		return strconv.FormatFloat(total, 'f', 1, 64)
	}
	return strconv.FormatFloat(total, 'f', 1, 64) + "/" + strconv.FormatFloat(wrong, 'f', 1, 64)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func entropy(dist []float64) float64 {
	total := sum(dist)
	if total <= 0 {
		return 0
	}
	e := 0.0
	for _, w := range dist {
		if w > 0 {
			p := w / total
			e -= p * math.Log2(p)
		}
	}
	return e
}
