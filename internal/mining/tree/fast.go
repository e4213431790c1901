package tree

import (
	"math"
	"slices"
	"sync"

	"edem/internal/dataset"
)

// The group builder is the one C4.5 builder. Its training domain is
// numeric, NaN-free rows of weight 1 in at most two classes (DESIGN.md
// §10): every view edem trains on comes from a propane.ToDataset
// dataset, whose classes are benign and failure, and an oversampled or
// SMOTE row is a copy or an interpolation of one of its rows. It
// induces over value groups, not rows: the view hands it, per
// attribute, the ascending list of its value groups with each group's
// row and class-1 counts, and every row's group ID. The fold's store
// found the groups once, and the sampling views only counted or merged
// into them, so the builder neither sorts nor groups anything. A SMOTE
// view's list also holds stretches, entries of distinct class-1 values
// (dataset.Group), which the builder scans as one run per row without
// expanding them. The
// general builder that re-sorts per node is kept in the tests as the
// oracle (general_test.go).
//
// Unit weights make every class sum a split sees an exact integer, so
// the builder counts, and entropies are computed from those integers
// with the same float operations a weight sum would take, so every gain
// has the bits it would have with float weights. It also makes a tree
// independent of the order of rows inside a run of equal values: split
// search, the minLeaf gates, MDL's distinct count, leaf distributions
// and pruning read such a run only through its membership and class
// counts. The one exception is which of -0 and +0 a threshold records
// when a cut lands on a run holding both: the last group of the run in
// the node's list, whose sign the group lists keep (DESIGN.md §10).
//
// A node is a range of one row list plus, per attribute, its group
// list. Partition splits the row list in place, cuts the split
// attribute's list at the cut, and builds every other attribute's
// children lists by counting only the smaller child's rows into their
// groups: the larger child's list is the parent's minus those counts,
// written over the parent's. The lists live in one buffer (see
// partition) taken, with the row list, the class bytes, the group
// counters and the child node pairs, from a pool of buildScratch: a
// tree allocates its Nodes and their class distributions, and almost
// nothing else. A builder and its scratch are used by one goroutine;
// fold- and grid-level parallelism each construct their own builder and
// take their own scratch.

// maxClasses bounds the class domain of the builder, whose group
// entries count the rows of class 1 and infer class 0.
const maxClasses = 2

type groupBuilder struct {
	attrs    []dataset.Attribute
	cols     [][]float64 // column-major attribute values [attr][row]
	rowGroup [][]int32   // [attr][row] group ID
	groupVal [][]float64 // [attr][group ID] value
	cls      []uint8     // per row id: class
	nClasses int
	sc       *buildScratch // partition memory

	// Split-scan scratch, reused across bestSplit calls. Safe because a
	// node's best split is fully consumed (partition + node labelling)
	// before any child recursion runs the next scan.
	splitBuf []split  // cap len(Attrs): addresses stay stable
	candBuf  []*split // views into splitBuf for selectSplit
	leaves   [2]bool  // per branch: the child is certainly a leaf

	scored int // cuts whose child entropies scan computed
}

// groupNode is the per-node view: its row count and class counts, its
// rows, and per attribute its group list. A node owns the range
// [lo, lo+n) of the scratch row list. Below the root its group list of
// attribute a lies in the slab sc.slab[a], and the node may use the
// slab from its list's start to the slab's end, which is the list's
// capacity (see partition). At the root the lists are the view's own,
// possibly shared with a fold-wide store other goroutines are reading,
// so the builder only reads them. A node that is certainly a leaf has
// no lists.
type groupNode struct {
	lo     int // the node's rows are sc.rows[lo : lo+n]
	n      int
	ones   int               // rows of class 1
	dist   []float64         // class counts, exact integers; becomes Node.Dist
	groups [][]dataset.Group // indexed by attr
}

// buildScratch is the partition memory of one tree. Every slot is
// written by the tree before it is read, so scratch handed over from
// another tree needs no clearing, only growing, except the group
// counters, which every partition leaves zero.
type buildScratch struct {
	rows   []int32             // the row list: rootN ids
	buf    []dataset.Group     // the list buffer: one slab per attribute
	slab   [][]dataset.Group   // per attr: its slab of buf (see slabSize)
	tmp    []dataset.Group     // staging for a smaller child's list
	vals   []float64           // a stretch's values, for a threshold
	cls    []uint8             // per row id: its class
	count  []uint64            // per group ID: the smaller child's rows << 32 | its class-1 rows
	levels []*[2]groupNode     // per depth: the children of the node being partitioned
	lists  [][][]dataset.Group // per depth: 2·nAttrs list headers for the children
}

// scratchPool recycles buildScratch across FitTreeView calls, so a
// refinement grid's trees reuse a few buffers instead of allocating
// their own.
var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// reset sizes the scratch for a tree over the view's rows, growing any
// buffer that is too small, and fills the row list and class bytes.
func (sc *buildScratch) reset(v *dataset.View) {
	nAttrs, rootN := len(v.Attrs()), v.Len()
	size, maxGroups := 0, 0
	for _, list := range v.Groups() {
		size += slabSize(rootN, len(list))
		maxGroups = max(maxGroups, len(list))
	}
	sc.buf = slices.Grow(sc.buf[:0], size)[:size]
	sc.slab = slices.Grow(sc.slab[:0], nAttrs)[:nAttrs]
	off := 0
	for a, list := range v.Groups() {
		end := off + slabSize(rootN, len(list))
		sc.slab[a] = sc.buf[off:end:end]
		off = end
	}
	sc.tmp = slices.Grow(sc.tmp[:0], min(rootN/2, maxGroups))
	sc.rows = append(sc.rows[:0], v.Rows()...)
	classes := v.Classes()
	sc.cls = slices.Grow(sc.cls[:0], len(classes))[:len(classes)]
	for i, c := range classes {
		sc.cls[i] = uint8(c)
	}
	nIDs := 0
	for _, vals := range v.GroupValues() {
		nIDs = max(nIDs, len(vals))
	}
	if len(sc.count) < nIDs {
		sc.count = make([]uint64, nIDs)
	}
}

// slabSize bounds the slab entries one attribute's group lists take in
// a tree of n rows whose root list holds g groups: f(n) = min(n, g +
// f(n/2)), f(0) = 0.
//
// A node's list holds at most min(rows, g) entries. Partition writes
// the larger child's list over the node's and the smaller child's
// right behind it, and build grows the smaller child, of at most n/2
// rows, first; the larger one's list waits below it. So a node of n
// rows uses at most its larger child's list (g) plus what the smaller
// child's subtree uses, f(n/2), or what the larger child's subtree
// uses, f(n-1) at most; and never more than n, since the lists in use
// at once are of disjoint rows, each no longer than its node has rows.
// A slab's capacity ends at its bound, so a list that outgrew it would
// panic in place rather than overwrite the next attribute's slab.
func slabSize(n, g int) int {
	var halves [64]int
	k := 0
	for ; n > 0; n /= 2 {
		halves[k] = n
		k++
	}
	f := 0
	for k--; k >= 0; k-- {
		f = min(halves[k], g+f)
	}
	return f
}

// level returns the child-node pair for a node at the given depth, each
// with room for nAttrs list headers. A node's children stay intact
// while deeper nodes partition, because those use the deeper levels.
func (sc *buildScratch) level(depth, nAttrs int) *[2]groupNode {
	for len(sc.levels) <= depth {
		sc.levels = append(sc.levels, new([2]groupNode))
		sc.lists = append(sc.lists, nil)
	}
	sc.lists[depth] = slices.Grow(sc.lists[depth][:0], 2*nAttrs)[:2*nAttrs]
	return sc.levels[depth]
}

// fitView grows and prunes a tree from a view of at most maxClasses
// classes, using sc as the builder's partition memory.
func fitView(v *dataset.View, sc *buildScratch) *Node {
	root := grow(v, sc)
	prune(root)
	return root
}

// grow grows the unpruned tree of a view.
func grow(v *dataset.View, sc *buildScratch) *Node {
	b := newViewBuilder(v, sc)
	return b.build(b.root(v), 0)
}

// newViewBuilder wires a builder straight to a columnar view's arrays
// and sizes sc for it: no column materialisation and no weight pass.
func newViewBuilder(v *dataset.View, sc *buildScratch) *groupBuilder {
	b := &groupBuilder{
		attrs:    v.Attrs(),
		cols:     v.Cols(),
		rowGroup: v.RowGroups(),
		groupVal: v.GroupValues(),
		nClasses: len(v.ClassValues()),
		sc:       sc,
		splitBuf: make([]split, 0, len(v.Attrs())),
		candBuf:  make([]*split, 0, len(v.Attrs())),
	}
	sc.reset(v)
	b.cls = sc.cls
	return b
}

// root returns the root node of a view: all of the row list, and the
// view's group lists, whose first list also gives the class counts.
func (b *groupBuilder) root(v *dataset.View) *groupNode {
	nd := &groupNode{n: v.Len(), dist: make([]float64, b.nClasses), groups: v.Groups()}
	if len(nd.groups) > 0 {
		for _, g := range nd.groups[0] {
			nd.ones += int(g.Ones)
		}
	} else {
		for _, r := range v.Rows() {
			nd.ones += int(b.cls[r])
		}
	}
	nd.dist[0] = float64(nd.n - nd.ones)
	if b.nClasses > 1 {
		nd.dist[1] = float64(nd.ones)
	}
	return nd
}

// certainLeaf reports whether a node of n rows with class counts dist
// is a leaf before any split is searched: too light to give two
// children minLeaf rows, or pure.
func certainLeaf(n int, dist []float64) bool {
	return n < 2*minLeaf || isPure(dist)
}

func (b *groupBuilder) build(nd *groupNode, depthSoFar int) *Node {
	node := &Node{Attr: -1, Dist: nd.dist, Class: argmax(nd.dist)}
	if certainLeaf(nd.n, nd.dist) {
		return node
	}
	best := b.bestSplit(nd, b.sc.rows[nd.lo:nd.lo+nd.n])
	if best == nil {
		return node
	}
	children, small := b.partition(nd, best, depthSoFar)
	if children == nil {
		return node
	}

	node.Attr = best.attr
	node.Threshold = best.threshold
	node.Children = make([]*Node, len(children))
	// The smaller child's lists lie above the larger one's: it grows
	// first (see slabSize).
	for _, i := range [2]int{small, 1 - small} {
		node.Children[i] = b.build(&children[i], depthSoFar+1)
	}
	return node
}

// bestSplit scans every attribute, collecting candidates into the
// builder's split scratch, and sets the chosen split's threshold from
// the node's rows. The returned pointer aims into splitBuf and is only
// valid until the next bestSplit call.
func (b *groupBuilder) bestSplit(nd *groupNode, rows []int32) *split {
	b.splitBuf = b.splitBuf[:0]
	b.candBuf = b.candBuf[:0]
	baseEntropy := entropy(nd.dist)
	for a := range b.attrs {
		var s split
		if b.scan(nd.groups[a], a, nd.n, nd.ones, baseEntropy, &s) && s.gain > 1e-12 {
			b.splitBuf = append(b.splitBuf, s)
			b.candBuf = append(b.candBuf, &b.splitBuf[len(b.splitBuf)-1])
		}
	}
	best := selectSplit(b.candBuf)
	if best != nil {
		b.threshold(best, nd.groups[best.attr], rows)
	}
	return best
}

// entropy2 is entropy over the two class counts c0 and c1 summing to
// total, with the float operations entropy takes on the same counts as
// float64s, so the two agree bit for bit.
func entropy2(c0, c1 int, total float64) float64 {
	if total <= 0 {
		return 0
	}
	e := 0.0
	if c0 > 0 {
		p := float64(c0) / total
		e -= p * math.Log2(p)
	}
	if c1 > 0 {
		p := float64(c1) / total
		e -= p * math.Log2(p)
	}
	return e
}

// scan searches attribute attr's group list of a node of n rows, ones
// of them in class 1, for the best cut, writing it into out. It reports
// whether a split was found. A node whose first and last groups share
// a run has no cut, and returns at once.
//
// The scan takes one run of == values at a time (nearly always one
// group) and scores only the cuts that can hold the maximum: boundary
// points, where the runs on either side are not both pure in the same
// class (Fayyad & Irani 1992 prove the gain-maximising cut is one),
// plus the first and last cuts that pass the minLeaf gate, since the
// gate can truncate a same-class stretch and leave its best feasible
// cut at the gate's edge, and the list's last cut. Whether a cut is a
// boundary point depends on the run after it, so a cut is decided once
// that run is counted. Once a run pure in one class is counted past the
// first feasible cut, the following single-group runs pure in the same
// class are skipped in a tight loop that only adds their rows and
// counts them as distinct, while the cut after each stays feasible and
// is not the node's last: the cut before each joins two runs pure in
// one class and is neither the first nor the last feasible one, so it
// is never scored.
//
// A stretch (dataset.Group) of S rows is S runs of one row of class 1.
// Its first row is counted as a run, and the S-1 cuts inside it join
// two runs of class 1, so of those only the first and last feasible
// ones and the list's last cut are scored, in O(1); the skip loop
// passes a stretch whole. The counts are exact, so every scored cut's
// gain has the same bits as in a scan of every cut over sorted rows
// (numericSplitFullScan in the tests), and distinct still counts every
// run for the MDL penalty. The threshold is the value of the last group
// left of the cut; where that is a stretch, or the cut lies inside one,
// it depends on the node's rows, and threshold sets it once the split
// is chosen.
func (b *groupBuilder) scan(list []dataset.Group, attr, n, ones int, baseEntropy float64, out *split) bool {
	L := len(list)
	if L < 2 || list[0].Run == list[L-1].Run {
		return false
	}
	totalW := float64(n)
	limit := n - minLeaf // the most rows a feasible cut leaves on its left
	var (
		bestGain  = -1.0
		bestEnd   int // the winning cut: this many rows go left
		bestOnes  int // of them, rows of class 1
		bestPos   int // and this many entries
		bestPart  int // and this many rows of the stretch after them
		distinct  = 1
		feasible  = false // a cut has passed the minLeaf gate
		prevClass int     // the class of the run before the cut (-1: mixed)
	)
	// try scores the cut leaving end rows, endOnes of them in class 1,
	// on its left: pos entries and part rows of the next.
	try := func(end, endOnes, pos, part int) {
		b.scored++
		leftW := float64(end)
		l0, l1 := end-endOnes, endOnes
		childEntropy := (leftW*entropy2(l0, l1, leftW) + (totalW-leftW)*entropy2(n-ones-l0, ones-l1, totalW-leftW)) / totalW
		if gain := baseEntropy - childEntropy; gain > bestGain {
			bestGain, bestEnd, bestOnes, bestPos, bestPart = gain, end, endOnes, pos, part
		}
	}
	left, leftOnes := 0, 0 // rows and class-1 rows left of the run being counted
	i := 0
	for {
		// Count the run starting at list[i]; of a stretch, its first row.
		start, startOnes, pos := left, leftOnes, i
		rest := 0 // the stretch's rows after its first
		class := 1
		if g := list[i]; g.Run < 0 {
			left++
			leftOnes++
			i++
			rest = int(g.N) - 1
		} else {
			for ; i < L && list[i].Run == g.Run; i++ {
				left += int(list[i].N)
				leftOnes += int(list[i].Ones)
			}
			class = -1
			switch leftOnes - startOnes {
			case 0:
				class = 0
			case left - start:
				class = 1
			}
		}
		last := i == L && rest == 0 // the run is the list's last
		// Decide the cut before this run.
		if leftW := float64(start); start > 0 && !(leftW < minLeaf || totalW-leftW < minLeaf) {
			nextW := float64(left)
			score := !feasible || prevClass < 0 || prevClass != class ||
				last || nextW < minLeaf || totalW-nextW < minLeaf
			feasible = true
			if score {
				try(start, startOnes, pos, 0)
			}
		}
		if rest > 0 {
			// The cuts inside the stretch leave lo..hi rows left; the
			// feasible ones lie in [first, end].
			lo, hi := left, left+rest-1
			first, end := max(lo, minLeaf), min(hi, limit)
			if first <= end {
				if !feasible {
					try(first, startOnes+first-start, pos, first-start)
				}
				if (end == limit || (i == L && end == hi)) && (feasible || end > first) {
					try(end, startOnes+end-start, pos, end-start)
				}
				feasible = true
			}
			left += rest
			leftOnes += rest
			distinct += rest
		}
		if i == L {
			break
		}
		prevClass = class
		distinct++
		// Skip the cuts inside a stretch of runs pure in this class: each
		// is feasible, not the first, not the last, and no boundary.
		if feasible {
			switch class {
			case 0:
				for i+1 < L {
					g := list[i]
					if g.Ones != 0 || left+int(g.N) > limit || list[i+1].Run == g.Run {
						break
					}
					left += int(g.N)
					distinct++
					i++
				}
			case 1:
				for i+1 < L {
					g := list[i]
					if g.Ones != g.N || left+int(g.N) > limit || list[i+1].Run == g.Run {
						break
					}
					left += int(g.N)
					leftOnes += int(g.N)
					if g.Run < 0 {
						distinct += int(g.N)
					} else {
						distinct++
					}
					i++
				}
			}
		}
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
	thr := 0.0 // set by threshold when the cut ends in a stretch
	if bestPart == 0 && list[bestPos-1].Run >= 0 {
		thr = b.groupVal[attr][list[bestPos-1].ID]
	}
	*out = split{
		attr: attr, threshold: thr, gain: gain, gainRatio: gr,
		leftN: bestEnd, leftOnes: bestOnes, leftGroups: bestPos, leftPart: bestPart,
	}
	return true
}

// threshold sets the threshold of a chosen split whose cut ends in a
// stretch of the node's list of the split attribute, from the node's
// rows: inside the stretch, the leftPart-th smallest value of its rows
// among them; right after it, the largest. Both are exact bits, as the
// stretch's values are pairwise distinct. Other splits keep the value
// scan gave them.
func (b *groupBuilder) threshold(s *split, list []dataset.Group, rows []int32) {
	var g dataset.Group
	k := s.leftPart
	switch {
	case k > 0:
		g = list[s.leftGroups]
	case list[s.leftGroups-1].Run < 0:
		g = list[s.leftGroups-1]
		k = int(g.N)
	default:
		return
	}
	col, rg := b.cols[s.attr], b.rowGroup[s.attr]
	vals := b.sc.vals[:0]
	for _, r := range rows {
		if rg[r] == g.ID {
			vals = append(vals, col[r])
		}
	}
	b.sc.vals = vals
	if k == len(vals) {
		s.threshold = slices.Max(vals)
		return
	}
	slices.Sort(vals)
	s.threshold = vals[k-1]
}

// partition splits the node, and returns its two children and which of
// them is the smaller, or nil when one of them would hold fewer than
// minLeaf rows (the node then stays a leaf).
//
// The children's class counts come from the scan. A child that is
// certainly a leaf (see certainLeaf) needs no lists, so when both
// children are leaves nothing else is done.
//
// Otherwise the node's range of the row list is split in place, left
// rows (value <= threshold) first; the order of rows in a range means
// nothing. The group lists live in one buffer, a slab per attribute
// (see slabSize). The larger child's list is written over the node's
// own, which the walk that builds it has always read past; the smaller
// child's is staged and copied right behind it, whichever side each
// is. At the root the lists are read from the view, which is never
// written, and the children's go to the slab's front. The smaller
// child grows first, so the lists of nodes still waiting for their
// turn lie below every list a node writes. The split
// attribute's list is cut at the split's entry, and a stretch the cut
// lies inside goes to both children, each entry counting its side's
// rows; every other list is split by counting the smaller child's rows
// into their groups (see splitList). Nothing is allocated but the
// children's class distributions, which become their Nodes' Dist.
func (b *groupBuilder) partition(nd *groupNode, s *split, depth int) ([]groupNode, int) {
	n, nC := nd.n, b.nClasses
	nl, nr := s.leftN, n-s.leftN
	if nl < minLeaf || nr < minLeaf {
		return nil, 0
	}

	nodes := b.sc.level(depth, len(b.attrs))
	dists := make([]float64, 2*nC)
	left, right := dists[:nC:nC], dists[nC:]
	left[0], right[0] = float64(nl-s.leftOnes), float64(nr-(nd.ones-s.leftOnes))
	if nC > 1 {
		left[1], right[1] = float64(s.leftOnes), float64(nd.ones-s.leftOnes)
	}
	leaves := &b.leaves
	leaves[0] = certainLeaf(nl, left)
	leaves[1] = certainLeaf(nr, right)
	small := 0
	if 2*nl > n {
		small = 1
	}
	large := 1 - small
	nodes[0] = groupNode{lo: nd.lo, n: nl, ones: s.leftOnes, dist: left}
	nodes[1] = groupNode{lo: nd.lo + nl, n: nr, ones: nd.ones - s.leftOnes, dist: right}
	if leaves[0] && leaves[1] {
		return nodes[:], small
	}

	b.splitRows(nd, s)
	smallRows := b.sc.rows[nodes[small].lo : nodes[small].lo+nodes[small].n]
	hdrs := b.sc.lists[depth]
	nAttrs := len(b.attrs)
	for k := range nodes {
		if !leaves[k] {
			nodes[k].groups = hdrs[k*nAttrs : (k+1)*nAttrs]
		}
	}
	for a, slab := range b.sc.slab {
		list := nd.groups[a]
		region := slab
		if depth > 0 {
			region = list[:cap(list)]
		}
		var lists [2][]dataset.Group
		if a == s.attr {
			cut := s.leftGroups
			lists = [2][]dataset.Group{list[:cut], list[cut:]}
			if s.leftPart > 0 {
				// Both children hold part of the stretch the cut lies in.
				lists[0] = list[:cut+1]
			}
			// Stage the smaller side, which the larger one's move may
			// overwrite.
			lists[small] = append(b.sc.tmp[:0], lists[small]...)
		} else {
			lists = b.splitList(list, region, a, small, smallRows)
		}
		if !leaves[large] {
			nodes[large].groups[a] = place(region, lists[large])
			region = region[len(lists[large]):]
		}
		if !leaves[small] {
			nodes[small].groups[a] = place(region, lists[small])
		}
		if a == s.attr && s.leftPart > 0 {
			part := int32(s.leftPart)
			if !leaves[0] {
				l := nodes[0].groups[a]
				g := &l[len(l)-1]
				g.N, g.Ones = part, part
			}
			if !leaves[1] {
				g := &nodes[1].groups[a][0]
				g.N -= part
				g.Ones = g.N
			}
		}
	}
	return nodes[:], small
}

// place moves list to the front of dst, unless it is there already,
// and returns it there, with dst's capacity. A list longer than dst
// panics.
func place(dst, list []dataset.Group) []dataset.Group {
	if len(list) > 0 && &dst[0] != &list[0] {
		copy(dst, list)
	}
	return dst[:len(list)]
}

// splitRows reorders the node's range of the row list so that the rows
// going left under s come first.
func (b *groupBuilder) splitRows(nd *groupNode, s *split) {
	rows := b.sc.rows[nd.lo : nd.lo+nd.n]
	col, thr := b.cols[s.attr], s.threshold
	i, j := 0, len(rows)-1
	for {
		for i <= j && col[rows[i]] <= thr {
			i++
		}
		for i <= j && col[rows[j]] > thr {
			j--
		}
		if i >= j {
			return
		}
		rows[i], rows[j] = rows[j], rows[i]
		i++
		j--
	}
}

// splitList returns the left and right children's group lists of
// attribute a from the node's list. It counts the rows of the smaller
// child (already split off by splitRows) into their groups, then walks
// the list once: a group's entry in the smaller child carries those
// counts, and its entry in the larger child the rest; an empty entry is
// left out. The larger child's list is written at the front of region,
// where the node's list starts (the walk has always read past it)
// below the root; the smaller child's goes to the staging buffer. The
// walk zeroes the counters it read. A child that is certainly a leaf
// gets no entries.
func (b *groupBuilder) splitList(list, region []dataset.Group, a, small int, rows []int32) [2][]dataset.Group {
	count, rg, cls := b.sc.count, b.rowGroup[a], b.cls
	for _, r := range rows {
		count[rg[r]] += 1<<32 | uint64(cls[r])
	}
	large := 1 - small
	ds, dl := b.sc.tmp[:0], region[:0]
	keepSmall, keepLarge := !b.leaves[small], !b.leaves[large]
	for _, g := range list {
		c := count[g.ID]
		if c != 0 {
			count[g.ID] = 0
			if keepSmall {
				ds = append(ds, dataset.Group{ID: g.ID, Run: g.Run, N: int32(c >> 32), Ones: int32(uint32(c))})
			}
			g.N -= int32(c >> 32)
			g.Ones -= int32(uint32(c))
		}
		if keepLarge && g.N > 0 {
			dl = append(dl, g)
		}
	}
	var lists [2][]dataset.Group
	lists[small], lists[large] = ds, dl
	return lists
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
