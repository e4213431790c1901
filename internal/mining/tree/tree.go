// Package tree implements C4.5 decision tree induction (Quinlan [34]),
// the symbolic pattern learning algorithm used by the paper to generate
// error detection predicates: gain-ratio splitting with the average-gain
// gate, MDL-corrected continuous thresholds, fractional instance weights
// for missing values, and pessimistic error-based pruning.
//
// Role in the methodology: the model generator of Step 3 and, re-run
// per sampling configuration, of Step 4; its trees are what
// internal/predicate reads off as detectors. Concurrency: Learner is a
// value-type configuration safe to share; every fit (FitTree,
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
// attribute (a binary threshold for numeric attributes, a multiway
// branch for nominal ones); every node carries the training class
// distribution observed at it, used for missing-value classification
// and pruning.
type Node struct {
	// Attr is the tested attribute index, or -1 for a leaf.
	Attr int
	// Threshold splits numeric attributes: <= goes to Children[0],
	// > to Children[1].
	Threshold float64
	// Children are the branch subtrees: two for numeric splits, one per
	// domain value for nominal splits. Nil for leaves.
	Children []*Node

	// Dist is the training class weight distribution at this node.
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

// Classify returns the majority class of the distribution reached by
// the instance (fractional across branches for missing values).
func (t *Tree) Classify(values []float64) int {
	dist := t.Distribution(values)
	best := 0
	for c := 1; c < len(dist); c++ {
		if dist[c] > dist[best] {
			best = c
		}
	}
	return best
}

// Distribution returns normalised class scores for the instance.
func (t *Tree) Distribution(values []float64) []float64 {
	dist := make([]float64, len(t.ClassValues))
	t.accumulate(t.Root, values, 1, dist)
	total := 0.0
	for _, v := range dist {
		total += v
	}
	if total <= 0 {
		// Degenerate: fall back to the root's training distribution.
		copy(dist, t.Root.Dist)
		total = 0
		for _, v := range dist {
			total += v
		}
		if total == 0 {
			return dist
		}
	}
	for i := range dist {
		dist[i] /= total
	}
	return dist
}

// accumulate walks the tree adding weight*P(class|leaf) into dist,
// splitting the instance's weight across branches when the tested value
// is missing (C4.5's fractional classification).
func (t *Tree) accumulate(n *Node, values []float64, weight float64, dist []float64) {
	if weight <= 0 {
		return
	}
	if n.IsLeaf() {
		total := 0.0
		for _, w := range n.Dist {
			total += w
		}
		if total <= 0 {
			dist[n.Class] += weight
			return
		}
		for c, w := range n.Dist {
			dist[c] += weight * w / total
		}
		return
	}
	v := values[n.Attr]
	if dataset.IsMissing(v) {
		// Distribute across children in proportion to training weight.
		var childW []float64
		total := 0.0
		for _, ch := range n.Children {
			w := sum(ch.Dist)
			childW = append(childW, w)
			total += w
		}
		if total <= 0 {
			t.accumulate(n.Children[0], values, weight, dist)
			return
		}
		for i, ch := range n.Children {
			t.accumulate(ch, values, weight*childW[i]/total, dist)
		}
		return
	}
	if t.Attrs[n.Attr].Type == dataset.Numeric {
		if v <= n.Threshold {
			t.accumulate(n.Children[0], values, weight, dist)
		} else {
			t.accumulate(n.Children[1], values, weight, dist)
		}
		return
	}
	idx := int(v)
	if idx < 0 || idx >= len(n.Children) {
		// Out-of-domain nominal value: treat as missing.
		t.accumulate(n.Children[0], values, weight, dist)
		return
	}
	t.accumulate(n.Children[idx], values, weight, dist)
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
		if attr.Type == dataset.Numeric {
			op := "<="
			if i == 1 {
				op = ">"
			}
			fmt.Fprintf(sb, "%s %s %s", attr.Name, op, strconv.FormatFloat(n.Threshold, 'g', 6, 64))
		} else {
			fmt.Fprintf(sb, "%s = %s", attr.Name, attr.Values[i])
		}
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
