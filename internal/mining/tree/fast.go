package tree

import (
	"math"

	"edem/internal/dataset"
)

// The fast induction path applies when the training data has no missing
// values: it starts from a dataset.View whose numeric attributes come
// presorted by the store (and merged by the sampling views), and the
// sort order is preserved through partitioning, removing the per-node
// sort that dominates induction cost on large fault-injection datasets.
// Datasets with missing values fall back to the general builder, which
// handles fractional instance weights.
//
// A second cost on large campaigns is allocation churn: the refinement
// grid induces thousands of trees per dataset, so per-node garbage adds
// up. The builder therefore keeps split-scan scratch (class
// distributions, candidate splits, branch counters) on the builder and
// partitions nodes count-then-fill into single arena allocations
// instead of per-child append chains. A builder is used by one
// goroutine; fold- and grid-level parallelism each construct their own.

type fastBuilder struct {
	cfg      Config
	attrs    []dataset.Attribute
	cols     [][]float64 // column-major attribute values [attr][row]
	classes  []int
	weights  []float64
	nClasses int
	nNumeric int // numeric attribute count: sorted-order slabs per node

	// Split-scan scratch, reused across bestSplit calls. Safe because a
	// node's best split is fully consumed (partition + node labelling)
	// before any child recursion runs the next scan.
	leftBuf   []float64
	rightBuf  []float64
	branchBuf []float64 // flat [nVals*nClasses] nominal class counts
	branchW   []float64
	splitBuf  []split  // cap len(Attrs): addresses stay stable
	candBuf   []*split // views into splitBuf for selectSplit
	countBuf  []int    // per-branch row counts
	startBuf  []int    // per-branch arena offsets
	fillBuf   []int    // per-branch fill cursors

	scored int // cuts whose child entropies numericSplit computed
}

// fastNode is the per-node view: row ids, plus per-numeric-attribute row
// ids in ascending value order. The root's slices are the view's own,
// possibly shared with a fold-wide store other goroutines are reading;
// the builder only reads them.
type fastNode struct {
	rows   []int32
	sorted [][]int32 // indexed by attr; nil for nominal attributes
}

// newViewBuilder wires a builder straight to a columnar view's arrays:
// no column materialisation and no weight clamp pass (the store clamps
// at build).
func newViewBuilder(cfg Config, v *dataset.View) *fastBuilder {
	fb := &fastBuilder{
		cfg:      cfg,
		attrs:    v.Attrs(),
		cols:     v.Cols(),
		classes:  v.Classes(),
		weights:  v.Weights(),
		nClasses: len(v.ClassValues()),
	}
	fb.initScratch()
	return fb
}

// initScratch sizes the split-scan scratch from the schema; attrs, cols
// and nClasses must already be set.
func (fb *fastBuilder) initScratch() {
	maxBranches := 2
	for a := range fb.attrs {
		if fb.attrs[a].Type == dataset.Numeric {
			fb.nNumeric++
		} else if v := len(fb.attrs[a].Values); v > maxBranches {
			maxBranches = v
		}
	}
	fb.leftBuf = make([]float64, fb.nClasses)
	fb.rightBuf = make([]float64, fb.nClasses)
	fb.branchBuf = make([]float64, maxBranches*fb.nClasses)
	fb.branchW = make([]float64, 0, maxBranches)
	fb.splitBuf = make([]split, 0, len(fb.attrs))
	fb.candBuf = make([]*split, 0, len(fb.attrs))
	fb.countBuf = make([]int, maxBranches)
	fb.startBuf = make([]int, maxBranches)
	fb.fillBuf = make([]int, maxBranches)
}

// distribution allocates a fresh class distribution — the result escapes
// into Node.Dist, so it cannot come from scratch.
func (fb *fastBuilder) distribution(rows []int32) []float64 {
	dist := make([]float64, fb.nClasses)
	for _, r := range rows {
		dist[fb.classes[r]] += fb.weights[r]
	}
	return dist
}

func (fb *fastBuilder) build(nd *fastNode, depthSoFar int) *Node {
	dist := fb.distribution(nd.rows)
	node := &Node{Attr: -1, Dist: dist, Class: argmax(dist)}

	totalW := sum(dist)
	if totalW < 2*fb.cfg.minLeaf() || isPure(dist) {
		return node
	}
	if fb.cfg.MaxDepth > 0 && depthSoFar >= fb.cfg.MaxDepth {
		return node
	}

	best := fb.bestSplit(nd, dist, totalW)
	if best == nil {
		return node
	}

	children := fb.partition(nd, best)
	strong := 0
	for i := range children {
		if fb.weightOfRows(children[i].rows) >= fb.cfg.minLeaf() {
			strong++
		}
	}
	if strong < 2 {
		return node
	}

	node.Attr = best.attr
	node.Threshold = best.threshold
	node.Children = make([]*Node, len(children))
	for i := range children {
		if len(children[i].rows) == 0 {
			node.Children[i] = &Node{Attr: -1, Dist: make([]float64, fb.nClasses), Class: node.Class}
			continue
		}
		node.Children[i] = fb.build(&children[i], depthSoFar+1)
	}
	return node
}

func (fb *fastBuilder) weightOfRows(rows []int32) float64 {
	w := 0.0
	for _, r := range rows {
		w += fb.weights[r]
	}
	return w
}

// bestSplit scans every attribute, collecting candidates into the
// builder's split scratch. The returned pointer aims into splitBuf and
// is only valid until the next bestSplit call.
func (fb *fastBuilder) bestSplit(nd *fastNode, dist []float64, totalW float64) *split {
	fb.splitBuf = fb.splitBuf[:0]
	fb.candBuf = fb.candBuf[:0]
	baseEntropy := entropy(dist)
	for a := range fb.attrs {
		var s split
		var ok bool
		if fb.attrs[a].Type == dataset.Numeric {
			ok = fb.numericSplit(nd.sorted[a], a, dist, baseEntropy, totalW, &s)
		} else {
			ok = fb.nominalSplit(nd.rows, a, baseEntropy, totalW, &s)
		}
		if ok && s.gain > 1e-12 {
			fb.splitBuf = append(fb.splitBuf, s)
			fb.candBuf = append(fb.candBuf, &fb.splitBuf[len(fb.splitBuf)-1])
		}
	}
	return selectSplit(fb.candBuf, fb.cfg.PlainGain)
}

// numericSplit scans the pre-sorted rows of a numeric attribute, writing
// the winning split into out. It reports whether a split was found.
//
// The scan walks one value group (a run of equal values) at a time and
// scores only the cuts that can hold the maximum: boundary points, where
// the groups on either side are not both pure in the same class
// (Fayyad & Irani 1992 prove the gain-maximising cut is one), plus the
// first and last cuts that pass the minLeaf gate, since the gate can
// truncate a same-class run and leave its best feasible cut at the
// gate's edge. Class counts and leftW still advance row by row in
// sorted order, so every scored cut's gain has the same bits as in a
// scan of every cut, and distinct still counts every group for the MDL
// penalty.
func (fb *fastBuilder) numericSplit(sorted []int32, attr int, dist []float64, baseEntropy, totalW float64, out *split) bool {
	n := len(sorted)
	if n < 2 {
		return false
	}
	col := fb.cols[attr]
	minLeaf := fb.cfg.minLeaf()

	left, right := fb.leftBuf, fb.rightBuf
	for i := range left {
		left[i] = 0
	}
	copy(right, dist)

	var (
		bestGain   = -1.0
		bestThresh float64
		bestLeftW  float64
		distinct   = 1
		leftW      = 0.0
		feasible   = false // a cut has passed the minLeaf gate
	)
	// The current group is sorted[i:end], of class class (-1: mixed);
	// nextW is leftW once it is moved left.
	i := 0
	end, class, nextW := fb.valueGroup(sorted, col, 0, leftW)
	for end < n {
		for ; i < end; i++ {
			r := sorted[i]
			w := fb.weights[r]
			c := fb.classes[r]
			left[c] += w
			right[c] -= w
		}
		leftW = nextW
		distinct++
		var nextEnd, nextClass int
		nextEnd, nextClass, nextW = fb.valueGroup(sorted, col, end, leftW)
		score := !(leftW < minLeaf || totalW-leftW < minLeaf)
		if score {
			score = !feasible || class < 0 || class != nextClass ||
				nextEnd == n || nextW < minLeaf || totalW-nextW < minLeaf
			feasible = true
		}
		if score {
			fb.scored++
			childEntropy := (leftW*entropy(left) + (totalW-leftW)*entropy(right)) / totalW
			gain := baseEntropy - childEntropy
			if gain > bestGain {
				bestGain = gain
				bestThresh = col[sorted[end-1]]
				bestLeftW = leftW
			}
		}
		end, class = nextEnd, nextClass
	}
	if bestGain < 0 {
		return false
	}
	gain := bestGain
	if !fb.cfg.NoMDLPenalty && distinct > 1 {
		gain -= math.Log2(float64(distinct-1)) / totalW
	}
	if gain <= 0 {
		return false
	}
	si := splitInfo([]float64{bestLeftW, totalW - bestLeftW}, totalW)
	gr := gain
	if si > 1e-12 {
		gr = gain / si
	}
	*out = split{attr: attr, threshold: bestThresh, gain: gain, gainRatio: gr}
	return true
}

// valueGroup measures the value group starting at sorted[start]: it
// returns the group's end, its class (-1 when the group mixes classes)
// and leftW plus the group's weights, added row by row as the full
// scan adds them.
func (fb *fastBuilder) valueGroup(sorted []int32, col []float64, start int, leftW float64) (end, class int, w float64) {
	r := sorted[start]
	class = fb.classes[r]
	w = leftW + fb.weights[r]
	for end = start + 1; end < len(sorted); end++ {
		next := sorted[end]
		if col[next] != col[r] {
			break
		}
		if fb.classes[next] != class {
			class = -1
		}
		w += fb.weights[next]
		r = next
	}
	return end, class, w
}

// nominalSplit evaluates a multi-way nominal split into out, counting
// branch distributions in the builder's flat scratch.
func (fb *fastBuilder) nominalSplit(rows []int32, attr int, baseEntropy, totalW float64, out *split) bool {
	nVals := len(fb.attrs[attr].Values)
	if nVals < 2 {
		return false
	}
	flat := fb.branchBuf[:nVals*fb.nClasses]
	for i := range flat {
		flat[i] = 0
	}
	col := fb.cols[attr]
	for _, r := range rows {
		flat[int(col[r])*fb.nClasses+fb.classes[r]] += fb.weights[r]
	}
	nonEmpty := 0
	childEntropy := 0.0
	branchW := fb.branchW[:0]
	for b := 0; b < nVals; b++ {
		bd := flat[b*fb.nClasses : (b+1)*fb.nClasses]
		w := sum(bd)
		branchW = append(branchW, w)
		if w > 0 {
			nonEmpty++
			childEntropy += w * entropy(bd)
		}
	}
	if nonEmpty < 2 {
		return false
	}
	childEntropy /= totalW
	gain := baseEntropy - childEntropy
	if gain <= 0 {
		return false
	}
	si := splitInfo(branchW, totalW)
	gr := gain
	if si > 1e-12 {
		gr = gain / si
	}
	*out = split{attr: attr, gain: gain, gainRatio: gr}
	return true
}

// partition splits the node preserving every attribute's sort order.
// Branch sizes are counted first, then every child's row list and
// per-attribute sort order are carved out of one arena: three
// allocations per node (arena, headers, child nodes) in place of
// per-child append chains that each re-grow logarithmically.
func (fb *fastBuilder) partition(nd *fastNode, s *split) []fastNode {
	numeric := fb.attrs[s.attr].Type == dataset.Numeric
	nBranches := 2
	if !numeric {
		nBranches = len(fb.attrs[s.attr].Values)
	}
	col := fb.cols[s.attr]
	branchOf := func(r int32) int {
		if numeric {
			if col[r] <= s.threshold {
				return 0
			}
			return 1
		}
		return int(col[r])
	}

	counts := fb.countBuf[:nBranches]
	for b := range counts {
		counts[b] = 0
	}
	for _, r := range nd.rows {
		counts[branchOf(r)]++
	}
	starts := fb.startBuf[:nBranches]
	off := 0
	for b := range counts {
		starts[b] = off
		off += counts[b]
	}

	n := len(nd.rows)
	nAttrs := len(fb.attrs)
	// One arena backs the row lists and every numeric attribute's sort
	// order; hdrs backs each child's per-attribute slice table.
	arena := make([]int32, n*(1+fb.nNumeric))
	hdrs := make([][]int32, nBranches*nAttrs)
	nodes := make([]fastNode, nBranches)

	rowsArena := arena[:n]
	for b := range nodes {
		nodes[b].rows = rowsArena[starts[b] : starts[b]+counts[b]]
		nodes[b].sorted = hdrs[b*nAttrs : (b+1)*nAttrs]
	}
	fill := fb.fillBuf[:nBranches]
	copy(fill, starts)
	for _, r := range nd.rows {
		b := branchOf(r)
		rowsArena[fill[b]] = r
		fill[b]++
	}

	slabOff := n
	for a := 0; a < nAttrs; a++ {
		if nd.sorted[a] == nil {
			continue
		}
		slab := arena[slabOff : slabOff+n]
		slabOff += n
		copy(fill, starts)
		for _, r := range nd.sorted[a] {
			b := branchOf(r)
			slab[fill[b]] = r
			fill[b]++
		}
		for b := range nodes {
			nodes[b].sorted[a] = slab[starts[b] : starts[b]+counts[b]]
		}
	}
	return nodes
}

// selectSplit applies C4.5's rule: among candidates whose gain is at
// least the average gain, pick the best gain ratio (or plain gain).
func selectSplit(candidates []*split, plainGain bool) *split {
	if len(candidates) == 0 {
		return nil
	}
	avgGain := 0.0
	for _, s := range candidates {
		avgGain += s.gain
	}
	avgGain /= float64(len(candidates))

	var best *split
	for _, s := range candidates {
		if s.gain+1e-12 < avgGain {
			continue
		}
		score := s.gainRatio
		if plainGain {
			score = s.gain
		}
		if best == nil {
			best = s
			continue
		}
		bestScore := best.gainRatio
		if plainGain {
			bestScore = best.gain
		}
		if score > bestScore || (score == bestScore && s.attr < best.attr) {
			best = s
		}
	}
	return best
}
