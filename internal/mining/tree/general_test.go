package tree

import (
	"math"
	"sort"

	"edem/internal/dataset"
)

// This file keeps the general C4.5 builder as the induction oracle of
// the counting builder. It is the textbook algorithm over instance
// rows: each node re-sorts its rows per attribute and sums float
// weights (every weight is 1 in the training domain, DESIGN.md §10),
// and partition copies rows into fresh per-branch slices. It shares
// only selectSplit, splitInfo, entropy and pruning with the counting
// builder, and must induce the same tree as FitTree, bit for bit.

// fitGeneral grows and prunes a tree with the general builder.
func fitGeneral(d *dataset.Dataset) *Node {
	b := &builder{d: d}
	items := make([]item, d.Len())
	for i := range d.Instances {
		in := &d.Instances[i]
		items[i] = item{values: in.Values, class: in.Class, w: 1}
	}
	root := b.build(items)
	prune(root)
	return root
}

// item is one training case at a node.
type item struct {
	values []float64
	class  int
	w      float64
}

type builder struct {
	d *dataset.Dataset
}

// build grows the subtree for the given cases.
func (b *builder) build(items []item) *Node {
	dist := b.distribution(items)
	node := &Node{Attr: -1, Dist: dist, Class: argmax(dist)}

	totalW := sum(dist)
	if totalW < 2*minLeaf || isPure(dist) {
		return node
	}

	split := b.bestSplit(items, dist)
	if split == nil {
		return node
	}

	groups := b.partition(items, split)
	// Require at least two branches holding minLeaf weight, as C4.5 does.
	strong := 0
	for _, g := range groups {
		if weightOf(g) >= minLeaf {
			strong++
		}
	}
	if strong < 2 {
		return node
	}

	node.Attr = split.attr
	node.Threshold = split.threshold
	node.Children = make([]*Node, len(groups))
	for i, g := range groups {
		node.Children[i] = b.build(g)
	}
	return node
}

func (b *builder) distribution(items []item) []float64 {
	dist := make([]float64, len(b.d.ClassValues))
	for i := range items {
		dist[items[i].class] += items[i].w
	}
	return dist
}

// bestSplit evaluates every attribute and applies C4.5's selection rule:
// among attributes whose information gain is at least the average of all
// positive gains, pick the best gain ratio.
func (b *builder) bestSplit(items []item, dist []float64) *split {
	totalW := sum(dist)

	candidates := make([]*split, 0, len(b.d.Attrs))
	for a := range b.d.Attrs {
		if s := b.numericSplit(items, a, totalW); s != nil && s.gain > 1e-12 {
			candidates = append(candidates, s)
		}
	}
	return selectSplit(candidates)
}

// numericSplit finds the best binary threshold for an attribute.
func (b *builder) numericSplit(items []item, attr int, totalW float64) *split {
	type vw struct {
		v     float64
		w     float64
		class int
	}
	known := make([]vw, 0, len(items))
	for i := range items {
		known = append(known, vw{v: items[i].values[attr], w: items[i].w, class: items[i].class})
	}
	if len(known) < 2 {
		return nil
	}
	sort.Slice(known, func(i, j int) bool { return known[i].v < known[j].v })

	nClasses := len(b.d.ClassValues)
	left := make([]float64, nClasses)
	right := make([]float64, nClasses)
	for _, k := range known {
		right[k.class] += k.w
	}
	baseEntropy := entropy(right)

	var (
		bestGain   = math.Inf(-1)
		bestThresh float64
		bestLeftW  float64
		distinct   = 1
		leftW      = 0.0
	)
	for i := 0; i < len(known)-1; i++ {
		left[known[i].class] += known[i].w
		right[known[i].class] -= known[i].w
		leftW += known[i].w
		if known[i].v == known[i+1].v {
			continue
		}
		distinct++
		if leftW < minLeaf || totalW-leftW < minLeaf {
			continue
		}
		childEntropy := (leftW*entropy(left) + (totalW-leftW)*entropy(right)) / totalW
		gain := baseEntropy - childEntropy
		if gain > bestGain {
			bestGain = gain
			// C4.5 style: threshold at the largest observed value below
			// the boundary keeps the test expressible in data values.
			bestThresh = known[i].v
			bestLeftW = leftW
		}
	}
	if math.IsInf(bestGain, -1) {
		return nil
	}

	// The MDL correction for having chosen among distinct-1 candidate
	// thresholds.
	gain := bestGain
	if distinct > 1 {
		gain -= math.Log2(float64(distinct-1)) / totalW
	}
	if gain <= 0 {
		return nil
	}

	si := splitInfo([]float64{bestLeftW, totalW - bestLeftW}, totalW)
	gr := gain
	if si > 1e-12 {
		gr = gain / si
	}
	return &split{attr: attr, threshold: bestThresh, gain: gain, gainRatio: gr}
}

// partition distributes cases into the split's two branches.
func (b *builder) partition(items []item, s *split) [][]item {
	groups := make([][]item, 2)
	for i := range items {
		g := 0
		if items[i].values[s.attr] > s.threshold {
			g = 1
		}
		groups[g] = append(groups[g], items[i])
	}
	return groups
}

func weightOf(items []item) float64 {
	w := 0.0
	for i := range items {
		w += items[i].w
	}
	return w
}
