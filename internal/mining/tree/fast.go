package tree

import (
	"math"
	"slices"
	"sync"

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
// grid induces thousands of trees per dataset, oversampled views hold
// up to about ten times the base partition's rows, and the trees are
// chain-shaped, so every row is re-partitioned several times. The
// builder therefore keeps split-scan scratch (class distributions,
// candidate splits, branch counters) on the builder, and partitions
// every node into one of two ping-pong buffers (see partition) taken,
// with the per-row branch array and the child node headers, from a
// pool of buildScratch: a tree allocates its Nodes and their class
// distributions, and almost nothing else. A builder and its scratch
// are used by one goroutine; fold- and grid-level parallelism each
// construct their own builder and take their own scratch.

type fastBuilder struct {
	cfg      Config
	attrs    []dataset.Attribute
	cols     [][]float64 // column-major attribute values [attr][row]
	classes  []int
	weights  []float64
	nClasses int
	nNumeric int           // numeric attribute count: sorted-order slabs per buffer
	sc       *buildScratch // partition memory; set by fitView

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
	startBuf  []int    // per-branch offsets within the node's range
	fillBuf   []int    // per-branch fill cursors

	scored int // cuts whose child entropies numericSplit computed
}

// fastNode is the per-node view: row ids, plus per-numeric-attribute row
// ids in ascending value order. A node owns the range [lo, lo+len(rows))
// of the root's rootN positions, and its order for attribute a is
// sorted[a][lo:lo+len(rows)] (see order). At the root, rows and sorted
// are the view's own, possibly shared with a fold-wide store other
// goroutines are reading, so the builder only reads them; below the
// root they point into the ping-pong buffers.
type fastNode struct {
	lo     int
	rows   []int32
	sorted [][]int32 // indexed by attr: rootN-id slabs; nil for nominal attributes
}

// order returns the node's rows in ascending order of attribute a.
func (nd *fastNode) order(a int) []int32 { return nd.sorted[a][nd.lo : nd.lo+len(nd.rows)] }

// buildScratch is the partition memory of one tree. Every slot is
// written by the tree before it is read, so scratch handed over from
// another tree needs no clearing, only growing.
type buildScratch struct {
	pp     [2][]int32   // ping-pong buffers: rootN row ids, then rootN ids per numeric attribute
	slabs  [2][][]int32 // per attr: pp[k]'s rootN-id slab; nil for nominal attributes
	branch []int32      // per row id: its branch at the node being partitioned (holds any arity)
	levels [][]fastNode // per depth: the children of the node being partitioned
}

// scratchPool recycles buildScratch across FitTreeView calls, so a
// refinement grid's trees reuse a few buffers instead of allocating
// their own.
var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// reset sizes the scratch for a tree over rootN rows whose ids lie in
// [0, nIDs), growing any buffer that is too small.
func (sc *buildScratch) reset(attrs []dataset.Attribute, rootN, nIDs, nNumeric int) {
	size := rootN * (1 + nNumeric)
	for k := range sc.pp {
		sc.pp[k] = slices.Grow(sc.pp[k][:0], size)[:size]
		sc.slabs[k] = slices.Grow(sc.slabs[k][:0], len(attrs))[:len(attrs)]
		off := rootN
		for a := range attrs {
			sc.slabs[k][a] = nil
			if attrs[a].Type == dataset.Numeric {
				sc.slabs[k][a] = sc.pp[k][off : off+rootN]
				off += rootN
			}
		}
	}
	sc.branch = slices.Grow(sc.branch[:0], nIDs)[:nIDs]
}

// level returns the child-node array for a node at the given depth. A
// node's children stay intact while deeper nodes partition, because
// those use the deeper levels.
func (sc *buildScratch) level(depth, width int) []fastNode {
	for len(sc.levels) <= depth {
		sc.levels = append(sc.levels, nil)
	}
	if cap(sc.levels[depth]) < width {
		sc.levels[depth] = make([]fastNode, width)
	}
	return sc.levels[depth][:width]
}

// fitView grows and prunes a tree from a missing-free view, using sc as
// the builder's partition memory.
func fitView(cfg Config, v *dataset.View, sc *buildScratch) *Node {
	fb := newViewBuilder(cfg, v)
	sc.reset(fb.attrs, v.Len(), len(fb.classes), fb.nNumeric)
	fb.sc = sc
	// The root starts from the view's presorted orders: no root sort.
	root := fb.build(&fastNode{rows: v.Rows(), sorted: v.Sorted()}, 0)
	if !cfg.NoPrune {
		prune(root, cfg.confidence())
	}
	return root
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

	children := fb.partition(nd, best, depthSoFar)
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
			ok = fb.numericSplit(nd.order(a), a, dist, baseEntropy, totalW, &s)
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
//
// The children's row lists and orders go into the ping-pong buffer of
// the node's depth, pp[depth%2], at the node's own range [lo, lo+n)
// within each rootN-id slab; child b takes [lo+start_b, lo+start_b+count_b).
// The node reads its own lists from the other buffer (or, at the root,
// from the view, which is never written). The write is safe because a
// node's range lies inside its parent's: in pp[depth%2] it overwrites
// only lists of ancestors that have already partitioned, while the
// ranges of siblings still waiting for their turn are disjoint from it.
//
// The counting pass records each row's branch in the branch array,
// indexed by row id, so the fills read a branch instead of re-testing
// the split once per attribute. Nothing is allocated: the buffers, the
// branch array and the child nodes come from the tree's scratch.
func (fb *fastBuilder) partition(nd *fastNode, s *split, depth int) []fastNode {
	n := len(nd.rows)
	br := fb.sc.branch
	col := fb.cols[s.attr]
	nBranches := 2
	counts := fb.countBuf
	if fb.attrs[s.attr].Type == dataset.Numeric {
		left := 0
		for _, r := range nd.rows {
			if col[r] <= s.threshold {
				br[r] = 0
				left++
			} else {
				br[r] = 1
			}
		}
		counts[0], counts[1] = left, n-left
	} else {
		nBranches = len(fb.attrs[s.attr].Values)
		clear(counts[:nBranches])
		for _, r := range nd.rows {
			b := int32(col[r])
			br[r] = b
			counts[b]++
		}
	}
	counts = counts[:nBranches]
	starts := fb.startBuf[:nBranches]
	off := 0
	for b := range counts {
		starts[b] = off
		off += counts[b]
	}

	k := depth % 2
	rows := fb.sc.pp[k][nd.lo : nd.lo+n]
	fb.fill(rows, nd.rows, nBranches)
	slabs := fb.sc.slabs[k]
	for a, slab := range slabs {
		if slab != nil {
			fb.fill(slab[nd.lo:nd.lo+n], nd.order(a), nBranches)
		}
	}
	nodes := fb.sc.level(depth, nBranches)
	for b := range nodes {
		nodes[b] = fastNode{lo: nd.lo + starts[b], rows: rows[starts[b] : starts[b]+counts[b]], sorted: slabs}
	}
	return nodes
}

// fill copies src into dst grouped by branch, as partition's counts and
// starts lay the branches out, keeping src order within each branch.
func (fb *fastBuilder) fill(dst, src []int32, nBranches int) {
	br := fb.sc.branch
	if nBranches == 2 {
		l, r := 0, fb.countBuf[0]
		for _, id := range src {
			if br[id] == 0 {
				dst[l] = id
				l++
			} else {
				dst[r] = id
				r++
			}
		}
		return
	}
	cur := fb.fillBuf[:nBranches]
	copy(cur, fb.startBuf)
	for _, id := range src {
		b := br[id]
		dst[cur[b]] = id
		cur[b]++
	}
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
