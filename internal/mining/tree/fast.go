package tree

import (
	"math"
	"slices"
	"sync"

	"edem/internal/dataset"
)

// The counting builder is the one C4.5 builder. Its training domain is
// numeric, NaN-free rows of weight 1 (DESIGN.md §10): every view edem
// trains on comes from a propane.ToDataset dataset, and an oversampled
// or SMOTE row is a copy or an interpolation of one of its rows. It
// starts from a dataset.View whose attributes come presorted by the
// store (and merged by the sampling views), and the sort order is
// preserved through partitioning, removing the per-node sort that
// dominates induction cost on large fault-injection datasets. The
// general builder that re-sorts per node is kept in the tests as the
// oracle (general_test.go).
//
// Unit weights make every class sum a split sees an exact integer, so
// the builder counts: the split scan reads a value and a one-byte class
// per row and keeps integer class counts, and entropies are computed
// from those integers with the same float operations a weight sum would
// take, so every gain has the bits it would have with float weights. It
// also makes a tree independent of the order of rows inside a run of
// equal values: split search, the minLeaf gates, MDL's distinct count,
// leaf distributions and pruning read such a run only through its
// membership and class counts. The one exception is which of -0 and +0
// a threshold records when a cut lands on a run holding both; x <= -0
// and x <= +0 agree on every input. So sampling views may place tied
// rows anywhere in their run (DESIGN.md §10).
//
// A second cost on large campaigns is allocation churn: the refinement
// grid induces thousands of trees per dataset, oversampled views hold
// up to about ten times the base partition's rows, and the trees are
// chain-shaped, so every row is re-partitioned several times. The
// builder therefore keeps split-scan scratch (class counts, candidate
// splits) on the builder, and partitions every node into one of two
// ping-pong buffers (see partition) taken, with the per-row side and
// class arrays and the child node pairs, from a pool of buildScratch: a tree allocates its Nodes and their class
// distributions, and almost nothing else. Partition reuses what the
// scan found: a split's children take their class counts from the scan
// and their rows from the split attribute's own order, and a child
// that is certainly a leaf gets no orders at all. A builder and
// its scratch are used by one goroutine; fold- and grid-level
// parallelism each construct their own builder and take their own
// scratch.

// maxFastClasses bounds the class domain of the fast builder, whose
// per-row class is one byte. edem's class domain has two values.
const maxFastClasses = 256

type fastBuilder struct {
	attrs    []dataset.Attribute
	cols     [][]float64 // column-major attribute values [attr][row]
	cls      []uint8     // per row id: class
	nClasses int
	sc       *buildScratch // partition memory

	// Split-scan scratch, reused across bestSplit calls. Safe because a
	// node's best split is fully consumed (partition + node labelling)
	// before any child recursion runs the next scan.
	total    []int // the node's class counts
	left     []int
	snap     []int
	right    []int
	bestLeft []int    // flat [attr*nClasses]: a candidate's left counts at its cut
	splitBuf []split  // cap len(Attrs): addresses stay stable
	candBuf  []*split // views into splitBuf for selectSplit
	counts   [2]int   // per-branch row counts of the node being partitioned
	leaves   [2]bool  // per branch: the child is certainly a leaf

	scored int // cuts whose child entropies numericSplit computed
}

// fastNode is the per-node view: its row count and class counts, and
// per-attribute row ids in ascending value order. A node owns the
// range [lo, lo+n) of the root's rootN positions, and its order for
// attribute a is sorted[a][lo:lo+n] (see order). At the root, sorted
// is the view's own, possibly shared with a fold-wide store other
// goroutines are reading, so the builder only reads it; below the root
// it points into the ping-pong buffers. A node that is certainly a
// leaf has none.
type fastNode struct {
	lo     int
	n      int
	dist   []float64 // class counts, exact integers; becomes Node.Dist
	sorted [][]int32 // indexed by attr: rootN-id slabs
}

// order returns the node's rows in ascending order of attribute a.
func (nd *fastNode) order(a int) []int32 { return nd.sorted[a][nd.lo : nd.lo+nd.n] }

// buildScratch is the partition memory of one tree. Every slot is
// written by the tree before it is read, so scratch handed over from
// another tree needs no clearing, only growing.
type buildScratch struct {
	pp     [2][]int32     // ping-pong buffers: rootN ids per attribute
	slabs  [2][][]int32   // per attr: pp[k]'s rootN-id slab
	side   []uint8        // per row id: its side at a split (0 left, 1 right)
	cls    []uint8        // per row id: its class
	levels []*[2]fastNode // per depth: the children of the node being partitioned
}

// scratchPool recycles buildScratch across FitTreeView calls, so a
// refinement grid's trees reuse a few buffers instead of allocating
// their own.
var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// reset sizes the scratch for a tree over rootN rows whose ids lie in
// [0, len(classes)), growing any buffer that is too small, and fills
// the class bytes.
func (sc *buildScratch) reset(nAttrs, rootN int, classes []int) {
	size := rootN * nAttrs
	for k := range sc.pp {
		sc.pp[k] = slices.Grow(sc.pp[k][:0], size)[:size]
		sc.slabs[k] = slices.Grow(sc.slabs[k][:0], nAttrs)[:nAttrs]
		for a := range sc.slabs[k] {
			sc.slabs[k][a] = sc.pp[k][a*rootN : (a+1)*rootN]
		}
	}
	nIDs := len(classes)
	sc.side = slices.Grow(sc.side[:0], nIDs)[:nIDs]
	sc.cls = slices.Grow(sc.cls[:0], nIDs)[:nIDs]
	for i, c := range classes {
		sc.cls[i] = uint8(c)
	}
}

// level returns the child-node pair for a node at the given depth. A
// node's children stay intact while deeper nodes partition, because
// those use the deeper levels.
func (sc *buildScratch) level(depth int) *[2]fastNode {
	for len(sc.levels) <= depth {
		sc.levels = append(sc.levels, new([2]fastNode))
	}
	return sc.levels[depth]
}

// fitView grows and prunes a tree from a view of at most
// maxFastClasses classes, using sc as the builder's partition memory.
func fitView(v *dataset.View, sc *buildScratch) *Node {
	root := grow(v, sc)
	prune(root)
	return root
}

// grow grows the unpruned tree of a view.
func grow(v *dataset.View, sc *buildScratch) *Node {
	fb := newViewBuilder(v, sc)
	// The root starts from the view's presorted orders: no root sort.
	return fb.build(fb.root(v), 0)
}

// newViewBuilder wires a builder straight to a columnar view's arrays
// and sizes sc for it: no column materialisation and no weight pass.
func newViewBuilder(v *dataset.View, sc *buildScratch) *fastBuilder {
	fb := &fastBuilder{
		attrs:    v.Attrs(),
		cols:     v.Cols(),
		nClasses: len(v.ClassValues()),
		sc:       sc,
	}
	fb.initScratch()
	sc.reset(len(fb.attrs), v.Len(), v.Classes())
	fb.cls = sc.cls
	return fb
}

// root returns the root node of a view.
func (fb *fastBuilder) root(v *dataset.View) *fastNode {
	dist := make([]float64, fb.nClasses)
	for _, r := range v.Rows() {
		dist[fb.cls[r]]++
	}
	return &fastNode{n: v.Len(), dist: dist, sorted: v.Sorted()}
}

// initScratch sizes the split-scan scratch from the schema; attrs and
// nClasses must already be set.
func (fb *fastBuilder) initScratch() {
	nC := fb.nClasses
	counts := make([]int, 4*nC+len(fb.attrs)*nC)
	fb.total, counts = counts[:nC], counts[nC:]
	fb.left, counts = counts[:nC], counts[nC:]
	fb.snap, counts = counts[:nC], counts[nC:]
	fb.right, fb.bestLeft = counts[:nC], counts[nC:]
	fb.splitBuf = make([]split, 0, len(fb.attrs))
	fb.candBuf = make([]*split, 0, len(fb.attrs))
}

// certainLeaf reports whether a node of n rows with class counts dist
// is a leaf before any split is searched: too light to give two
// children minLeaf rows, or pure.
func certainLeaf(n int, dist []float64) bool {
	return n < 2*minLeaf || isPure(dist)
}

func (fb *fastBuilder) build(nd *fastNode, depthSoFar int) *Node {
	node := &Node{Attr: -1, Dist: nd.dist, Class: argmax(nd.dist)}
	if certainLeaf(nd.n, nd.dist) {
		return node
	}
	best := fb.bestSplit(nd)
	if best == nil {
		return node
	}
	children := fb.partition(nd, best, depthSoFar)
	if children == nil {
		return node
	}

	node.Attr = best.attr
	node.Threshold = best.threshold
	node.Children = make([]*Node, len(children))
	for i := range children {
		if children[i].n == 0 {
			node.Children[i] = &Node{Attr: -1, Dist: children[i].dist, Class: node.Class}
			continue
		}
		node.Children[i] = fb.build(&children[i], depthSoFar+1)
	}
	return node
}

// bestSplit scans every attribute, collecting candidates into the
// builder's split scratch. The returned pointer aims into splitBuf and
// is only valid until the next bestSplit call.
func (fb *fastBuilder) bestSplit(nd *fastNode) *split {
	fb.splitBuf = fb.splitBuf[:0]
	fb.candBuf = fb.candBuf[:0]
	for c, w := range nd.dist {
		fb.total[c] = int(w)
	}
	baseEntropy := entropy(nd.dist)
	for a := range fb.attrs {
		var s split
		if fb.numericSplit(nd.order(a), a, fb.total, baseEntropy, &s) && s.gain > 1e-12 {
			fb.splitBuf = append(fb.splitBuf, s)
			fb.candBuf = append(fb.candBuf, &fb.splitBuf[len(fb.splitBuf)-1])
		}
	}
	return selectSplit(fb.candBuf)
}

// entropyCounts is entropy over integer class counts summing to total,
// with the float operations entropy takes on the same counts as
// float64s, so the two agree bit for bit.
func entropyCounts(counts []int, total float64) float64 {
	if total <= 0 {
		return 0
	}
	e := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / total
			e -= p * math.Log2(p)
		}
	}
	return e
}

// numericSplit scans the pre-sorted rows of an attribute, whose class
// counts are total, writing the winning split into out. It
// reports whether a split was found. A node whose first and last
// values are equal has no cut, and returns at once.
//
// The scan makes one pass per value group (a run of equal values),
// counting classes, and scores only the cuts that can hold the maximum:
// boundary points, where the groups on either side are not both pure in
// the same class (Fayyad & Irani 1992 prove the gain-maximising cut is
// one), plus the first and last cuts that pass the minLeaf gate, since
// the gate can truncate a same-class run and leave its best feasible
// cut at the gate's edge. Whether a cut is a boundary point depends on
// the group after it, so a cut is decided once that group is counted,
// from a snapshot of the counts at the cut. The counts are exact, so
// every scored cut's gain has the same bits as in a scan of every cut
// (numericSplitFullScan in the tests), and distinct still counts every
// group for the MDL penalty. The winner's left counts are kept in
// bestLeft for partition.
func (fb *fastBuilder) numericSplit(sorted []int32, attr int, total []int, baseEntropy float64, out *split) bool {
	n := len(sorted)
	col := fb.cols[attr]
	if n < 2 || col[sorted[0]] == col[sorted[n-1]] {
		return false
	}
	cls := fb.cls
	totalW := float64(n)
	left, snap, right := fb.left, fb.snap, fb.right
	clear(left)
	clear(snap)

	var (
		bestGain  = -1.0
		bestEnd   int // the winning cut: rows sorted[:bestEnd] go left
		distinct  = 1
		feasible  = false // a cut has passed the minLeaf gate
		prevClass int     // the class of the group before the cut (-1: mixed)
	)
	// Two classes count in registers: ones and snapOnes are the class-1
	// rows after and before the group, and snap is only written for a
	// scored cut. Counting in left would chain every row's increment
	// through memory.
	binary := len(total) == 2
	ones, snapOnes := 0, 0
	i := 0
	r := sorted[0]
	v := col[r]
	for {
		// Count the group sorted[start:i]; snap (or snapOnes) holds the
		// counts before it.
		start := i
		c0 := cls[r]
		class := int(c0)
		if binary {
			ones += int(c0)
			for i++; i < n; i++ {
				r = sorted[i]
				if x := col[r]; x != v {
					v = x
					break
				}
				ones += int(cls[r])
			}
			if g := ones - snapOnes; g != 0 && g != i-start {
				class = -1
			}
		} else {
			left[c0]++
			for i++; i < n; i++ {
				r = sorted[i]
				if x := col[r]; x != v {
					v = x
					break
				}
				left[cls[r]]++
			}
			if left[c0]-snap[c0] != i-start {
				class = -1
			}
		}
		// Decide the cut before this group, whose left side is snap.
		if leftW := float64(start); start > 0 && !(leftW < minLeaf || totalW-leftW < minLeaf) {
			nextW := float64(i)
			score := !feasible || prevClass < 0 || prevClass != class ||
				i == n || nextW < minLeaf || totalW-nextW < minLeaf
			feasible = true
			if score {
				fb.scored++
				if binary {
					snap[0], snap[1] = start-snapOnes, snapOnes
				}
				for c := range right {
					right[c] = total[c] - snap[c]
				}
				childEntropy := (leftW*entropyCounts(snap, leftW) + (totalW-leftW)*entropyCounts(right, totalW-leftW)) / totalW
				gain := baseEntropy - childEntropy
				if gain > bestGain {
					bestGain = gain
					bestEnd = start
					copy(fb.bestLeft[attr*fb.nClasses:], snap)
				}
			}
		}
		if i == n {
			break
		}
		if binary {
			snapOnes = ones
		} else {
			for c, k := range left {
				snap[c] = k
			}
		}
		prevClass = class
		distinct++
	}
	if bestGain < 0 {
		return false
	}
	gain := bestGain
	if distinct > 1 {
		gain -= math.Log2(float64(distinct-1)) / totalW
	}
	if gain <= 0 {
		return false
	}
	bestLeftW := float64(bestEnd)
	si := splitInfo([]float64{bestLeftW, totalW - bestLeftW}, totalW)
	gr := gain
	if si > 1e-12 {
		gr = gain / si
	}
	*out = split{attr: attr, threshold: col[sorted[bestEnd-1]], gain: gain, gainRatio: gr, leftN: bestEnd}
	return true
}

// partition splits the node preserving every attribute's sort order,
// and returns its two children, or nil when fewer than two of them
// would hold minLeaf rows (the node then stays a leaf).
//
// The children's class counts come from the scan: the left side is the
// first leftN rows of the split attribute's order. A child that is
// certainly a leaf (see certainLeaf) needs no orders, so when both
// children are leaves nothing is filled.
//
// The other children's orders go into the ping-pong buffer of the
// node's depth, pp[depth%2], at the node's own range [lo, lo+n) within
// each rootN-id slab; the left child takes [lo, lo+leftN) and the right
// one the rest. The node reads its own orders from the other buffer
// (or, at the root, from the view, which is never written). The write
// is safe because a node's range lies inside its parent's: in
// pp[depth%2] it overwrites only orders of ancestors that have already
// partitioned, while the ranges of siblings still waiting for their
// turn are disjoint from it. The split attribute's own order is split
// by position, with no per-row value test, and marks each row's side
// from it; the other attributes' fills read that side. Nothing is
// allocated but the children's class distributions, which become their
// Nodes' Dist.
func (fb *fastBuilder) partition(nd *fastNode, s *split, depth int) []fastNode {
	n, nC := nd.n, fb.nClasses
	counts := &fb.counts
	counts[0], counts[1] = s.leftN, n-s.leftN
	if counts[0] < minLeaf || counts[1] < minLeaf {
		return nil
	}

	nodes := fb.sc.level(depth)
	dists := make([]float64, 2*nC)
	left, right := dists[:nC:nC], dists[nC:]
	for c := range left {
		left[c] = float64(fb.bestLeft[s.attr*nC+c])
		right[c] = nd.dist[c] - left[c]
	}
	leaves := &fb.leaves
	leaves[0] = certainLeaf(counts[0], left)
	leaves[1] = certainLeaf(counts[1], right)
	nodes[0] = fastNode{lo: nd.lo, n: counts[0], dist: left}
	nodes[1] = fastNode{lo: nd.lo + counts[0], n: counts[1], dist: right}
	if leaves[0] && leaves[1] {
		return nodes[:]
	}

	slabs := fb.sc.slabs[depth%2]
	ord, side := nd.order(s.attr), fb.sc.side
	for _, r := range ord[:s.leftN] {
		side[r] = 0
	}
	for _, r := range ord[s.leftN:] {
		side[r] = 1
	}
	for a, slab := range slabs {
		dst, src := slab[nd.lo:nd.lo+n], nd.order(a)
		if a != s.attr {
			fb.fill(dst, src)
			continue
		}
		if !leaves[0] {
			copy(dst[:counts[0]], src)
		}
		if !leaves[1] {
			copy(dst[counts[0]:], src[counts[0]:])
		}
	}
	for b := range nodes {
		if !leaves[b] {
			nodes[b].sorted = slabs
		}
	}
	return nodes[:]
}

// fill copies src into dst grouped by side, left rows first, keeping
// src order within each side, as partition lays the children out. It
// reads each row's side, and skips a child that is certainly a leaf.
func (fb *fastBuilder) fill(dst, src []int32) {
	side := fb.sc.side
	switch {
	case fb.leaves[1]:
		l := 0
		for _, id := range src {
			if side[id] == 0 {
				dst[l] = id
				l++
			}
		}
	case fb.leaves[0]:
		r := fb.counts[0]
		for _, id := range src {
			if side[id] != 0 {
				dst[r] = id
				r++
			}
		}
	default:
		l, r := 0, fb.counts[0]
		for _, id := range src {
			if side[id] == 0 {
				dst[l] = id
				l++
			} else {
				dst[r] = id
				r++
			}
		}
	}
}

// selectSplit applies C4.5's rule: among candidates whose gain is at
// least the average gain, pick the best gain ratio, ties going to the
// lower attribute.
func selectSplit(candidates []*split) *split {
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
		if best == nil || s.gainRatio > best.gainRatio || (s.gainRatio == best.gainRatio && s.attr < best.attr) {
			best = s
		}
	}
	return best
}
