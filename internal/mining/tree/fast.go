package tree

import (
	"math"
	"slices"
	"sync"

	"edem/internal/dataset"
)

// The fast induction path applies when the training view has no
// missing values and unit weights. Every view edem trains on qualifies:
// campaign rows weigh 1, and an oversampled or SMOTE row takes its
// seed's weight. It starts from a dataset.View whose numeric attributes
// come presorted by the store (and merged by the sampling views), and
// the sort order is preserved through partitioning, removing the
// per-node sort that dominates induction cost on large fault-injection
// datasets. Any other view is materialised for the general builder,
// which handles missing values and fractional instance weights.
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
// splits, branch counters) on the builder, and partitions every node
// into one of two ping-pong buffers (see partition) taken, with the
// per-row branch and class arrays and the child node headers, from a
// pool of buildScratch: a tree allocates its Nodes and their class
// distributions, and almost nothing else. Partition reuses what the
// scan found: a numeric split's children take their class counts from
// the scan and their rows from the split attribute's own order, and a
// child that is certainly a leaf gets no orders at all. A builder and
// its scratch are used by one goroutine; fold- and grid-level
// parallelism each construct their own builder and take their own
// scratch.

// maxFastClasses bounds the class domain of the fast builder, whose
// per-row class is one byte. edem's class domain has two values.
const maxFastClasses = 256

type fastBuilder struct {
	cfg      Config
	attrs    []dataset.Attribute
	cols     [][]float64 // column-major attribute values [attr][row]
	cls      []uint8     // per row id: class
	nClasses int
	nNumeric int // numeric attribute count: sorted-order slabs per buffer
	// firstNum is the first numeric attribute, whose order doubles as a
	// node's row list; -1 when there is none, and node rows then take a
	// slab of their own.
	firstNum int
	sc       *buildScratch // partition memory

	// Split-scan scratch, reused across bestSplit calls. Safe because a
	// node's best split is fully consumed (partition + node labelling)
	// before any child recursion runs the next scan.
	total     []int // the node's class counts
	left      []int
	snap      []int
	right     []int
	bestLeft  []int     // flat [attr*nClasses]: a numeric candidate's left counts at its cut
	branchBuf []int     // flat [nVals*nClasses] nominal class counts
	branchW   []float64 // per nominal branch: its row count
	splitBuf  []split   // cap len(Attrs): addresses stay stable
	candBuf   []*split  // views into splitBuf for selectSplit
	countBuf  []int     // per-branch row counts
	startBuf  []int     // per-branch offsets within the node's range
	fillBuf   []int     // per-branch fill cursors
	leafBuf   []bool    // per-branch: the child is certainly a leaf

	scored int // cuts whose child entropies numericSplit computed
}

// fastNode is the per-node view: its row count and class counts, a row
// list, and per-numeric-attribute row ids in ascending value order. A
// node owns the range [lo, lo+n) of the root's rootN positions, and its
// order for attribute a is sorted[a][lo:lo+n] (see order). Its rows
// are its first numeric attribute's order, or, with no numeric
// attribute, the same range of a row slab. At the root, rows and sorted
// are the view's own, possibly shared with a fold-wide store other
// goroutines are reading, so the builder only reads them; below the
// root they point into the ping-pong buffers. A node that is certainly
// a leaf has neither.
type fastNode struct {
	lo     int
	n      int
	dist   []float64 // class counts, exact integers; becomes Node.Dist
	rows   []int32
	sorted [][]int32 // indexed by attr: rootN-id slabs; nil for nominal attributes
}

// order returns the node's rows in ascending order of attribute a.
func (nd *fastNode) order(a int) []int32 { return nd.sorted[a][nd.lo : nd.lo+nd.n] }

// buildScratch is the partition memory of one tree. Every slot is
// written by the tree before it is read, so scratch handed over from
// another tree needs no clearing, only growing.
type buildScratch struct {
	pp     [2][]int32   // ping-pong buffers: rootN ids per numeric attribute (or one row slab)
	slabs  [2][][]int32 // per attr: pp[k]'s rootN-id slab; nil for nominal attributes
	rows   [2][]int32   // pp[k]'s row slab, only when no attribute is numeric
	branch []int32      // per row id: its branch at a nominal split (holds any arity)
	side   []uint8      // per row id: its side at a numeric split (0 left, 1 right)
	cls    []uint8      // per row id: its class
	levels [][]fastNode // per depth: the children of the node being partitioned
}

// scratchPool recycles buildScratch across FitTreeView calls, so a
// refinement grid's trees reuse a few buffers instead of allocating
// their own.
var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// reset sizes the scratch for a tree over rootN rows whose ids lie in
// [0, len(classes)), growing any buffer that is too small, and fills
// the class bytes.
func (sc *buildScratch) reset(attrs []dataset.Attribute, rootN, nNumeric int, classes []int) {
	size := rootN * max(nNumeric, 1)
	for k := range sc.pp {
		sc.pp[k] = slices.Grow(sc.pp[k][:0], size)[:size]
		sc.slabs[k] = slices.Grow(sc.slabs[k][:0], len(attrs))[:len(attrs)]
		off := 0
		for a := range attrs {
			sc.slabs[k][a] = nil
			if attrs[a].Type == dataset.Numeric {
				sc.slabs[k][a] = sc.pp[k][off : off+rootN]
				off += rootN
			}
		}
		sc.rows[k] = nil
		if nNumeric == 0 {
			sc.rows[k] = sc.pp[k][:rootN]
		}
	}
	nIDs := len(classes)
	sc.branch = slices.Grow(sc.branch[:0], nIDs)[:nIDs]
	sc.side = slices.Grow(sc.side[:0], nIDs)[:nIDs]
	sc.cls = slices.Grow(sc.cls[:0], nIDs)[:nIDs]
	for i, c := range classes {
		sc.cls[i] = uint8(c)
	}
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

// fitView grows and prunes a tree from a missing-free, unit-weight view
// of at most maxFastClasses classes, using sc as the builder's
// partition memory.
func fitView(cfg Config, v *dataset.View, sc *buildScratch) *Node {
	fb := newViewBuilder(cfg, v, sc)
	// The root starts from the view's presorted orders: no root sort.
	root := fb.build(fb.root(v), 0)
	if !cfg.NoPrune {
		prune(root, cfg.confidence())
	}
	return root
}

// newViewBuilder wires a builder straight to a columnar view's arrays
// and sizes sc for it: no column materialisation and no weight pass.
func newViewBuilder(cfg Config, v *dataset.View, sc *buildScratch) *fastBuilder {
	fb := &fastBuilder{
		cfg:      cfg,
		attrs:    v.Attrs(),
		cols:     v.Cols(),
		nClasses: len(v.ClassValues()),
		firstNum: -1,
		sc:       sc,
	}
	fb.initScratch()
	sc.reset(fb.attrs, v.Len(), fb.nNumeric, v.Classes())
	fb.cls = sc.cls
	return fb
}

// root returns the root node of a view.
func (fb *fastBuilder) root(v *dataset.View) *fastNode {
	rows := v.Rows()
	if fb.firstNum >= 0 {
		rows = v.Sorted()[fb.firstNum]
	}
	dist := make([]float64, fb.nClasses)
	for _, r := range rows {
		dist[fb.cls[r]]++
	}
	return &fastNode{n: len(rows), dist: dist, rows: rows, sorted: v.Sorted()}
}

// initScratch sizes the split-scan scratch from the schema; attrs and
// nClasses must already be set.
func (fb *fastBuilder) initScratch() {
	maxBranches := 2
	for a := range fb.attrs {
		if fb.attrs[a].Type == dataset.Numeric {
			if fb.firstNum < 0 {
				fb.firstNum = a
			}
			fb.nNumeric++
		} else if v := len(fb.attrs[a].Values); v > maxBranches {
			maxBranches = v
		}
	}
	nC := fb.nClasses
	counts := make([]int, 4*nC+len(fb.attrs)*nC+maxBranches*nC)
	fb.total, counts = counts[:nC], counts[nC:]
	fb.left, counts = counts[:nC], counts[nC:]
	fb.snap, counts = counts[:nC], counts[nC:]
	fb.right, counts = counts[:nC], counts[nC:]
	fb.bestLeft, fb.branchBuf = counts[:len(fb.attrs)*nC], counts[len(fb.attrs)*nC:]
	fb.branchW = make([]float64, 0, maxBranches)
	fb.splitBuf = make([]split, 0, len(fb.attrs))
	fb.candBuf = make([]*split, 0, len(fb.attrs))
	fb.countBuf = make([]int, maxBranches)
	fb.startBuf = make([]int, maxBranches)
	fb.fillBuf = make([]int, maxBranches)
	fb.leafBuf = make([]bool, maxBranches)
}

// leaf reports whether a node of n rows with class counts dist at the
// given depth is a leaf before any split is searched: too light to give
// two children minLeaf weight, pure, or at the depth cap.
func (fb *fastBuilder) leaf(n int, dist []float64, depth int) bool {
	return float64(n) < 2*fb.cfg.minLeaf() || isPure(dist) ||
		(fb.cfg.MaxDepth > 0 && depth >= fb.cfg.MaxDepth)
}

func (fb *fastBuilder) build(nd *fastNode, depthSoFar int) *Node {
	node := &Node{Attr: -1, Dist: nd.dist, Class: argmax(nd.dist)}
	if fb.leaf(nd.n, nd.dist, depthSoFar) {
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
		var ok bool
		if fb.attrs[a].Type == dataset.Numeric {
			ok = fb.numericSplit(nd.order(a), a, fb.total, baseEntropy, &s)
		} else {
			ok = fb.nominalSplit(nd.rows, a, baseEntropy, &s)
		}
		if ok && s.gain > 1e-12 {
			fb.splitBuf = append(fb.splitBuf, s)
			fb.candBuf = append(fb.candBuf, &fb.splitBuf[len(fb.splitBuf)-1])
		}
	}
	return selectSplit(fb.candBuf, fb.cfg.PlainGain)
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

// numericSplit scans the pre-sorted rows of a numeric attribute, whose
// class counts are total, writing the winning split into out. It
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
	minLeaf := fb.cfg.minLeaf()
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
	if !fb.cfg.NoMDLPenalty && distinct > 1 {
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

// nominalSplit evaluates a multi-way nominal split into out, counting
// branch class counts in the builder's flat scratch.
func (fb *fastBuilder) nominalSplit(rows []int32, attr int, baseEntropy float64, out *split) bool {
	nVals := len(fb.attrs[attr].Values)
	if nVals < 2 {
		return false
	}
	nC := fb.nClasses
	flat := fb.branchBuf[:nVals*nC]
	clear(flat)
	col, cls := fb.cols[attr], fb.cls
	for _, r := range rows {
		flat[int(col[r])*nC+int(cls[r])]++
	}
	totalW := float64(len(rows))
	nonEmpty := 0
	childEntropy := 0.0
	branchW := fb.branchW[:0]
	for b := 0; b < nVals; b++ {
		bd := flat[b*nC : (b+1)*nC]
		n := 0
		for _, c := range bd {
			n += c
		}
		w := float64(n)
		branchW = append(branchW, w)
		if w > 0 {
			nonEmpty++
			childEntropy += w * entropyCounts(bd, w)
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

// partition splits the node preserving every attribute's sort order,
// and returns its children, or nil when fewer than two of them would
// hold minLeaf weight (the node then stays a leaf).
//
// The children's class counts come first: a numeric split's from the
// scan (its left side is the first leftN rows of the split attribute's
// order), a nominal split's from one counting pass over the node's
// rows, which also records each row's branch in the branch array. A
// child that is certainly a leaf (see leaf) needs no orders, so when
// every child is one nothing is filled.
//
// The other children's orders go into the ping-pong buffer of the
// node's depth, pp[depth%2], at the node's own range [lo, lo+n) within
// each rootN-id slab; child b takes [lo+start_b, lo+start_b+count_b).
// The node reads its own orders from the other buffer (or, at the root,
// from the view, which is never written). The write is safe because a
// node's range lies inside its parent's: in pp[depth%2] it overwrites
// only orders of ancestors that have already partitioned, while the
// ranges of siblings still waiting for their turn are disjoint from it.
// A numeric split's own order is split by position, with no per-row
// value test, and marks each row's side from it; the other attributes'
// fills read that side (or a nominal split's branch). Nothing is
// allocated but the children's class distributions, which become their
// Nodes' Dist.
func (fb *fastBuilder) partition(nd *fastNode, s *split, depth int) []fastNode {
	n, nC := nd.n, fb.nClasses
	minLeaf := fb.cfg.minLeaf()
	numeric := fb.attrs[s.attr].Type == dataset.Numeric
	nBranches := 2
	if !numeric {
		nBranches = len(fb.attrs[s.attr].Values)
	}
	counts := fb.countBuf[:nBranches]
	br := fb.sc.branch
	if numeric {
		counts[0], counts[1] = s.leftN, n-s.leftN
	} else {
		flat := fb.branchBuf[:nBranches*nC]
		clear(flat)
		clear(counts)
		col := fb.cols[s.attr]
		for _, r := range nd.rows {
			b := int32(col[r])
			br[r] = b
			counts[b]++
			flat[int(b)*nC+int(fb.cls[r])]++
		}
	}
	strong := 0
	for _, c := range counts {
		if float64(c) >= minLeaf {
			strong++
		}
	}
	if strong < 2 {
		return nil
	}

	nodes := fb.sc.level(depth, nBranches)
	dists := make([]float64, nBranches*nC)
	starts := fb.startBuf[:nBranches]
	leaves := fb.leafBuf[:nBranches]
	fillAny := false
	off := 0
	for b := range nodes {
		dist := dists[b*nC : (b+1)*nC : (b+1)*nC]
		switch {
		case !numeric:
			for c := range dist {
				dist[c] = float64(fb.branchBuf[b*nC+c])
			}
		case b == 0:
			for c := range dist {
				dist[c] = float64(fb.bestLeft[s.attr*nC+c])
			}
		default:
			for c := range dist {
				dist[c] = nd.dist[c] - dists[c]
			}
		}
		starts[b] = off
		leaves[b] = fb.leaf(counts[b], dist, depth+1)
		fillAny = fillAny || !leaves[b]
		nodes[b] = fastNode{lo: nd.lo + off, n: counts[b], dist: dist}
		off += counts[b]
	}
	if !fillAny {
		return nodes
	}

	k := depth % 2
	slabs := fb.sc.slabs[k]
	if numeric {
		ord, side := nd.order(s.attr), fb.sc.side
		for _, r := range ord[:s.leftN] {
			side[r] = 0
		}
		for _, r := range ord[s.leftN:] {
			side[r] = 1
		}
	}
	for a, slab := range slabs {
		if slab == nil {
			continue
		}
		dst, src := slab[nd.lo:nd.lo+n], nd.order(a)
		if a != s.attr {
			fb.fill(dst, src, nBranches, numeric)
			continue
		}
		for b := range nodes {
			if !leaves[b] {
				copy(dst[starts[b]:starts[b]+counts[b]], src[starts[b]:])
			}
		}
	}
	if rows := fb.sc.rows[k]; rows != nil {
		fb.fill(rows[nd.lo:nd.lo+n], nd.rows, nBranches, numeric)
	}
	for b := range nodes {
		if leaves[b] {
			continue
		}
		nodes[b].sorted = slabs
		if fb.firstNum >= 0 {
			nodes[b].rows = nodes[b].order(fb.firstNum)
		} else {
			nodes[b].rows = fb.sc.rows[k][nodes[b].lo : nodes[b].lo+counts[b]]
		}
	}
	return nodes
}

// fill copies src into dst grouped by branch, as partition's counts and
// starts lay the branches out, keeping src order within each branch. A
// numeric split reads each row's side, and skips a child that is
// certainly a leaf; a nominal one reads its branch.
func (fb *fastBuilder) fill(dst, src []int32, nBranches int, numeric bool) {
	br := fb.sc.branch
	if numeric {
		side := fb.sc.side
		leaves := fb.leafBuf
		switch {
		case leaves[1]:
			l := 0
			for _, id := range src {
				if side[id] == 0 {
					dst[l] = id
					l++
				}
			}
		case leaves[0]:
			r := fb.countBuf[0]
			for _, id := range src {
				if side[id] != 0 {
					dst[r] = id
					r++
				}
			}
		default:
			l, r := 0, fb.countBuf[0]
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
