package tree

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"edem/internal/dataset"
	"edem/internal/stats"
)

func treesEqual(a, b *Node) bool {
	if a.IsLeaf() != b.IsLeaf() {
		return false
	}
	if a.IsLeaf() {
		return a.Class == b.Class
	}
	if a.Attr != b.Attr || a.Threshold != b.Threshold || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !treesEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// TestFastMatchesGeneral verifies the optimisation is behaviour-
// preserving: FitTree (the store-backed counting builder) and the
// general builder must produce identical trees.
func TestFastMatchesGeneral(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		d := mixedDataset(300, seed)
		fast, err := (Learner{}).FitTree(d)
		if err != nil {
			t.Fatal(err)
		}
		if !treesEqual(fast.Root, fitGeneral(d)) {
			t.Errorf("seed %d: fast and general trees differ", seed)
		}
	}
}

// mixedDataset mixes continuous attributes with a three-valued one (a
// mode code) under an interaction concept and label noise.
func mixedDataset(n int, seed uint64) *dataset.Dataset {
	d := dataset.New("mixed", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
		dataset.NumericAttr("mode"),
	}, []string{"neg", "pos"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()*4
		mode := rng.Intn(3)
		class := 0
		if (mode == 2 && x > 0.3) || y > 3.5 {
			class = 1
		}
		if rng.Float64() < 0.05 {
			class = 1 - class
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, y, float64(mode)}, Class: class, Weight: 1})
	}
	return d
}

func TestFastMatchesGeneralProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%150) + 20
		d := mixedDataset(n, seed)
		fast, err := (Learner{}).FitTree(d)
		if err != nil {
			return false
		}
		return treesEqual(fast.Root, fitGeneral(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// fitTreeCase decodes bytes into a dataset for FuzzFitTree. data[0]
// picks the attribute count (1 to 3) and the class count (2 or 3).
// Each row then takes one byte and one little-endian float64 bit
// pattern per attribute: the byte's low bits pick the class, and with
// its top bit set the row repeats the previous row's values, so equal
// runs grow long. A NaN pattern becomes the infinity of its sign: the
// training domain has no NaN.
func fitTreeCase(data []byte) *dataset.Dataset {
	if len(data) < 1 {
		return nil
	}
	nAttrs := 1 + int(data[0]%3)
	nClasses := 2 + int(data[0]/3%2)
	attrs := make([]dataset.Attribute, nAttrs)
	for a := range attrs {
		attrs[a] = dataset.NumericAttr(fmt.Sprintf("x%d", a))
	}
	d := dataset.New("fuzz", attrs, []string{"c0", "c1", "c2"}[:nClasses])
	width := 1 + 8*nAttrs
	for rows := data[1:]; len(rows) >= width && d.Len() < 256; rows = rows[width:] {
		vs := make([]float64, nAttrs)
		if rows[0]&0x80 != 0 && d.Len() > 0 {
			copy(vs, d.Instances[d.Len()-1].Values)
		} else {
			for a := range vs {
				bits := binary.LittleEndian.Uint64(rows[1+8*a:])
				vs[a] = math.Float64frombits(bits)
				if vs[a] != vs[a] {
					vs[a] = math.Inf(1 - 2*int(bits>>63))
				}
			}
		}
		d.MustAdd(dataset.Instance{Values: vs, Class: int(rows[0]&0x7f) % nClasses, Weight: 1})
	}
	if d.Len() == 0 {
		return nil
	}
	return d
}

// FuzzFitTree holds FitTree to the general builder on fuzzer-chosen
// float64 bit patterns (±0, ±Inf, the ±1e308 clamps, subnormals, long
// equal runs): the same tree, node for node, distributions included, up to the sign of a zero
// threshold, which the two builders' unstable sorts may pick
// differently.
func FuzzFitTree(f *testing.F) {
	row := func(class byte, vs ...float64) []byte {
		b := []byte{class}
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	seed := func(shape byte, rows ...[]byte) []byte {
		b := []byte{shape}
		for _, r := range rows {
			b = append(b, r...)
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(seed(0,
		row(0, 0), row(1, negZero), row(0, math.Inf(1)), row(1, math.Inf(-1)),
		row(0, 1e308), row(1, -1e308), row(1, 5e-324), row(0, -5e-324),
		row(1, 0x1p-1022), row(0, 0), row(1, negZero), row(1, 1e308)))
	var runs [][]byte
	for i := 0; i < 40; i++ {
		runs = append(runs, row(byte(i/10%2)|0x80, 0))
		if i%10 == 0 {
			runs[i] = row(byte(i/10%2), float64(i/10))
		}
	}
	f.Add(seed(0, runs...))
	f.Add(seed(5,
		row(0, 1e308, 0, 1), row(1, -1e308, negZero, 2), row(2, 1e308, 1, 1),
		row(0x80, 0, 0, 0), row(1, 2, math.Inf(1), 5e-324), row(2, 2, math.Inf(-1), 0),
		row(1, -1e308, 0, 1), row(0, 3, 3, 3), row(1, 1e308, negZero, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fitTreeCase(data)
		if d == nil {
			return
		}
		got, err := (Learner{}).FitTree(d)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTreeUpToZeroSign(got.Root, fitGeneral(d)) {
			t.Fatalf("FitTree differs from the general builder\n%s", got)
		}
	})
}

func BenchmarkFastInduction(b *testing.B) {
	d := mixedDataset(5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Learner{}).FitTree(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneralInduction times the oracle, for comparison with
// BenchmarkFastInduction.
func BenchmarkGeneralInduction(b *testing.B) {
	d := mixedDataset(5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fitGeneral(d)
	}
}

// numericSplitFullScan is the pre-boundary-point numericSplit over
// float weights, kept as the oracle: it scores every distinct-value cut
// that passes minLeaf, adding each row's weight of 1 in sorted order.
func (fb *fastBuilder) numericSplitFullScan(sorted []int32, attr int, dist []float64, baseEntropy float64, out *split) bool {
	if len(sorted) < 2 {
		return false
	}
	col := fb.cols[attr]
	totalW := sum(dist)

	left := make([]float64, fb.nClasses)
	right := append([]float64(nil), dist...)

	var (
		bestGain   = -1.0
		bestThresh float64
		bestLeftW  float64
		distinct   = 1
		leftW      = 0.0
	)
	for i := 0; i < len(sorted)-1; i++ {
		r := sorted[i]
		c := fb.cls[r]
		left[c]++
		right[c]--
		leftW++
		if col[r] == col[sorted[i+1]] {
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
			bestThresh = col[r]
			bestLeftW = leftW
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
	si := splitInfo([]float64{bestLeftW, totalW - bestLeftW}, totalW)
	gr := gain
	if si > 1e-12 {
		gr = gain / si
	}
	*out = split{attr: attr, threshold: bestThresh, gain: gain, gainRatio: gr, leftN: int(bestLeftW)}
	return true
}

// classDist counts the classes of rows as float64s, the distribution
// the builder keeps for a node.
func (fb *fastBuilder) classDist(rows []int32) []float64 {
	dist := make([]float64, fb.nClasses)
	for _, r := range rows {
		dist[fb.cls[r]]++
	}
	return dist
}

// splitValues is the value pool of splitCase: duplicates, both zeros
// and both infinities.
var splitValues = []float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 0.5, 1, 2, 3, 4, 5, 7, math.Inf(1)}

// splitCase decodes bytes into a one-attribute store and a builder on
// its identity view. data[0] picks the class count (2 or 3); data[1] is
// skipped. Each further byte pair is one row: a value from
// splitValues, and a class that follows the value (long same-class
// runs) or is free (mixed value groups).
func splitCase(data []byte) (fb *fastBuilder, v *dataset.View) {
	if len(data) < 6 {
		return nil, nil
	}
	nClasses := 2 + int(data[0]%2)
	rows := data[2:]
	if len(rows) > 128 {
		rows = rows[:128]
	}
	classes := []string{"c0", "c1", "c2"}[:nClasses]
	d := dataset.New("split", []dataset.Attribute{dataset.NumericAttr("x")}, classes)
	for i := 0; i+1 < len(rows); i += 2 {
		vi := int(rows[i]) % len(splitValues)
		cb := rows[i+1]
		class := vi * nClasses / len(splitValues)
		if cb&0x80 != 0 {
			class = int(cb) % nClasses
		}
		d.MustAdd(dataset.Instance{Values: []float64{splitValues[vi]}, Class: class, Weight: 1})
	}
	v = dataset.NewStore(d, nil).IdentityView()
	return newViewBuilder(v, new(buildScratch)), v
}

// checkNumericSplit runs the kernel and the full-scan oracle on one node
// and requires the same ok and the same split, bit for bit.
func checkNumericSplit(t *testing.T, fb *fastBuilder, sorted []int32) {
	t.Helper()
	dist := fb.classDist(sorted)
	total := make([]int, len(dist))
	for c, w := range dist {
		total[c] = int(w)
	}
	base := entropy(dist)
	var got, want split
	gotOK := fb.numericSplit(sorted, 0, total, base, &got)
	wantOK := fb.numericSplitFullScan(sorted, 0, dist, base, &want)
	if gotOK != wantOK {
		t.Fatalf("ok = %v, full scan %v (n=%d)", gotOK, wantOK, len(sorted))
	}
	if !gotOK {
		return
	}
	if got.attr != want.attr || got.leftN != want.leftN ||
		math.Float64bits(got.threshold) != math.Float64bits(want.threshold) ||
		math.Float64bits(got.gain) != math.Float64bits(want.gain) ||
		math.Float64bits(got.gainRatio) != math.Float64bits(want.gainRatio) {
		t.Fatalf("split %+v, full scan %+v (n=%d)", got, want, len(sorted))
	}
	left := fb.classDist(sorted[:got.leftN])
	for c := range left {
		if float64(fb.bestLeft[c]) != left[c] {
			t.Fatalf("left counts %v, want %v", fb.bestLeft[:len(left)], left)
		}
	}
}

// TestNumericSplitMatchesFullScan pins the boundary-point counting scan
// to the full float scan on random nodes: mixed-class value groups,
// long same-class runs, ±0 and ±Inf, two and three classes, and n from
// 2 up, so the minLeaf gate cuts into runs at both ends.
func TestNumericSplitMatchesFullScan(t *testing.T) {
	rng := stats.NewRNG(16)
	for iter := 0; iter < 20000; iter++ {
		data := make([]byte, 2+2*(2+rng.Intn(60)))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		fb, v := splitCase(data)
		sorted := v.Sorted()[0]
		checkNumericSplit(t, fb, sorted)
		// A child node: every other row, in the parent's sorted order.
		var half []int32
		for _, r := range sorted {
			if r%2 == 0 {
				half = append(half, r)
			}
		}
		if len(half) > 0 {
			checkNumericSplit(t, fb, half)
		}
	}
}

func FuzzNumericSplit(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 4, 0x81, 5, 0, 6, 0x81})
	f.Add([]byte{9, 1, 0, 0, 1, 0, 12, 0xff, 12, 0x80, 3, 0x85, 4, 0x86})
	f.Add([]byte{5, 1, 3, 0x80, 4, 0x81, 3, 0x81, 4, 0x80, 7, 0x12, 8, 0x34})
	f.Fuzz(func(t *testing.T, data []byte) {
		if fb, v := splitCase(data); fb != nil {
			checkNumericSplit(t, fb, v.Sorted()[0])
		}
	})
}

// TestNumericSplitScoresOnlyBoundaries proves the skip: on 50 rows of
// class 0 then 50 of class 1, all values distinct, the kernel scores
// only the first feasible cut, the one boundary point and the last
// feasible cut, where the full scan scores 97.
func TestNumericSplitScoresOnlyBoundaries(t *testing.T) {
	d := dataset.New("runs", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"neg", "pos"})
	for i := 0; i < 100; i++ {
		d.MustAdd(dataset.Instance{Values: []float64{float64(i)}, Class: i / 50, Weight: 1})
	}
	v := dataset.NewStore(d, nil).IdentityView()
	fb := newViewBuilder(v, new(buildScratch))
	var s split
	if !fb.numericSplit(v.Sorted()[0], 0, []int{50, 50}, 1, &s) {
		t.Fatal("no split found")
	}
	if s.threshold != 49 || s.leftN != 50 {
		t.Errorf("threshold %v leftN %d, want 49 and 50", s.threshold, s.leftN)
	}
	if fb.scored > 3 {
		t.Errorf("scored %d cuts, want at most 3", fb.scored)
	}
	checkNumericSplit(t, fb, v.Sorted()[0])
}

// TestNumericSplitConstantNode: a node whose attribute holds one value
// (both zeros count as one) has no cut, and the scan scores nothing.
func TestNumericSplitConstantNode(t *testing.T) {
	d := dataset.New("flat", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"neg", "pos"})
	for i := 0; i < 20; i++ {
		d.MustAdd(dataset.Instance{Values: []float64{math.Copysign(0, float64(i%2)-0.5)}, Class: i % 2, Weight: 1})
	}
	v := dataset.NewStore(d, nil).IdentityView()
	fb := newViewBuilder(v, new(buildScratch))
	var s split
	if fb.numericSplit(v.Sorted()[0], 0, []int{10, 10}, 1, &s) || fb.scored != 0 {
		t.Fatalf("constant attribute split (scored %d)", fb.scored)
	}
}

// partitionArena is the count-then-fill partition the builder used
// before the ping-pong buffers, kept as the oracle: every child's row
// list (returned beside the children) and per-attribute order are
// carved out of a fresh arena per node, re-testing the split once per
// row and attribute, and every child's distribution is counted from
// its rows.
func (fb *fastBuilder) partitionArena(nd *fastNode, s *split, rows []int32) ([]fastNode, [][]int32) {
	const nBranches = 2
	col := fb.cols[s.attr]
	branchOf := func(r int32) int {
		if col[r] <= s.threshold {
			return 0
		}
		return 1
	}

	counts := make([]int, nBranches)
	for _, r := range rows {
		counts[branchOf(r)]++
	}
	starts := make([]int, nBranches)
	off := 0
	for b := range counts {
		starts[b] = off
		off += counts[b]
	}

	n := nd.n
	nAttrs := len(fb.attrs)
	arena := make([]int32, n*(1+nAttrs))
	hdrs := make([][]int32, nBranches*nAttrs)
	nodes := make([]fastNode, nBranches)
	childRows := make([][]int32, nBranches)

	rowsArena := arena[:n]
	for b := range nodes {
		nodes[b].n = counts[b]
		childRows[b] = rowsArena[starts[b] : starts[b]+counts[b]]
		nodes[b].sorted = hdrs[b*nAttrs : (b+1)*nAttrs]
	}
	fill := make([]int, nBranches)
	copy(fill, starts)
	for _, r := range rows {
		b := branchOf(r)
		rowsArena[fill[b]] = r
		fill[b]++
	}
	for b := range nodes {
		nodes[b].dist = fb.classDist(childRows[b])
	}

	slabOff := n
	for a := 0; a < nAttrs; a++ {
		slab := arena[slabOff : slabOff+n]
		slabOff += n
		copy(fill, starts)
		for _, r := range nd.order(a) {
			b := branchOf(r)
			slab[fill[b]] = r
			fill[b]++
		}
		for b := range nodes {
			nodes[b].sorted[a] = slab[starts[b] : starts[b]+counts[b]]
		}
	}
	return nodes, childRows
}

// buildArena is build with partitionArena in place of partition; rows
// is the node's row list.
func (fb *fastBuilder) buildArena(nd *fastNode, rows []int32, depthSoFar int) *Node {
	node := &Node{Attr: -1, Dist: nd.dist, Class: argmax(nd.dist)}
	if certainLeaf(nd.n, nd.dist) {
		return node
	}
	best := fb.bestSplit(nd)
	if best == nil {
		return node
	}
	children, childRows := fb.partitionArena(nd, best, rows)
	strong := 0
	for i := range children {
		if children[i].n >= minLeaf {
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
		if children[i].n == 0 {
			node.Children[i] = &Node{Attr: -1, Dist: make([]float64, fb.nClasses), Class: node.Class}
			continue
		}
		node.Children[i] = fb.buildArena(&children[i], childRows[i], depthSoFar+1)
	}
	return node
}

// growArena grows the oracle's unpruned tree for a view, as grow does
// with ping-pong partitioning. The root's rows are the view's own, in
// instance order.
func growArena(v *dataset.View) *Node {
	fb := newViewBuilder(v, new(buildScratch))
	rows := v.Rows()
	return fb.buildArena(&fastNode{n: len(rows), dist: fb.classDist(rows), sorted: v.Sorted()}, rows, 0)
}

// partitionViews builds the view shapes the refinement grid trains on
// from one dataset: identity, a repeat view with duplicates of every
// third row, and an extend view whose synthetics copy every fourth row
// with its numeric values nudged.
func partitionViews(d *dataset.Dataset) map[string]*dataset.View {
	st := dataset.NewStore(d, nil)
	var extra []int32
	var syn []dataset.Synthetic
	for i := 0; i < len(st.Classes()); i++ {
		if i%3 == 0 {
			extra = append(extra, int32(i), int32(i))
		}
		if i%4 == 0 {
			in := d.Instances[i]
			vs := append([]float64(nil), in.Values...)
			for a := range vs {
				vs[a] += 0.001 * float64(i%5)
			}
			syn = append(syn, dataset.Synthetic{Values: vs, Class: in.Class})
		}
	}
	return map[string]*dataset.View{
		"identity": st.IdentityView(),
		"repeat":   st.RepeatView(extra),
		"extend":   st.ExtendView(syn),
	}
}

// checkPartition grows the view's unpruned tree with ping-pong
// partitioning on fresh scratch and with the arena oracle, requiring
// the same tree, and returns its depth. Pruning reads only the grown
// tree, so equal grown trees prune alike.
func checkPartition(t *testing.T, name string, v *dataset.View) int {
	t.Helper()
	got := grow(v, new(buildScratch))
	if !nodesEqual(got, growArena(v)) {
		t.Fatalf("%s: ping-pong and arena trees differ", name)
	}
	return depth(got)
}

// chainDataset peels one small pure leaf off per split: class
// alternates across eight bands of x, each band smaller than the last,
// so the tree is a deep, very unbalanced chain.
func chainDataset() *dataset.Dataset {
	d := dataset.New("chain", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("noise"),
	}, []string{"neg", "pos"})
	rng := stats.NewRNG(5)
	for band, size := 0, 256; size >= 2; band, size = band+1, size/2 {
		for k := 0; k < size; k++ {
			d.MustAdd(dataset.Instance{Values: []float64{float64(band) + float64(k)/float64(size), rng.Float64()}, Class: band % 2, Weight: 1})
		}
	}
	return d
}

// signedZeroDataset holds heavy duplicates and both zeros, so split
// thresholds land on −0 and +0.
func signedZeroDataset(n int, seed uint64) *dataset.Dataset {
	pool := []float64{-2, -1, math.Copysign(0, -1), 0, 1, 2}
	d := dataset.New("zeros", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
	}, []string{"neg", "pos"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x, y := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		class := 0
		if x > -1 && y >= 0 {
			class = 1
		}
		if rng.Float64() < 0.1 {
			class = 1 - class
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, y}, Class: class, Weight: 1})
	}
	return d
}

// TestPartitionMatchesArena pins ping-pong partitioning to the arena
// oracle on whole trees, node for node: ±0 thresholds and duplicates,
// very unbalanced chains, and trees deep enough that both ping-pong
// buffers are written and overwritten several times.
func TestPartitionMatchesArena(t *testing.T) {
	cases := map[string]*dataset.Dataset{
		"mixed": mixedDataset(600, 1),
		"zeros": signedZeroDataset(400, 3),
		"chain": chainDataset(),
	}
	deepest := 0
	for name, d := range cases {
		for vname, v := range partitionViews(d) {
			deepest = max(deepest, checkPartition(t, name+"/"+vname, v))
		}
	}
	if deepest < 4 {
		t.Fatalf("deepest tree has %d levels; the cases must reach 4", deepest)
	}
}

// partitionCase decodes bytes into a view for FuzzPartition. data[0]
// is how many rows get a duplicate (a repeat view when non-zero). Each
// further triple is one row: x and y from splitValues, and a byte whose
// low bits pick a 5-valued code m and whose top bit flips the class
// that otherwise follows x.
func partitionCase(data []byte) *dataset.View {
	if len(data) < 7 {
		return nil
	}
	dups := int(data[0])
	rows := data[1:]
	if len(rows) > 3*256 {
		rows = rows[:3*256]
	}
	d := dataset.New("fuzz", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
		dataset.NumericAttr("m"),
	}, []string{"neg", "pos"})
	for i := 0; i+2 < len(rows); i += 3 {
		xi := int(rows[i]) % len(splitValues)
		y := splitValues[int(rows[i+1])%len(splitValues)]
		b := rows[i+2]
		class := xi * 2 / len(splitValues)
		if b&0x80 != 0 {
			class = 1 - class
		}
		d.MustAdd(dataset.Instance{Values: []float64{splitValues[xi], y, float64(b % 5)}, Class: class, Weight: 1})
	}
	if d.Len() == 0 {
		return nil
	}
	st := dataset.NewStore(d, nil)
	if dups == 0 {
		return st.IdentityView()
	}
	extra := make([]int32, 0, dups)
	for i := 0; i < dups; i++ {
		extra = append(extra, int32(i*7%len(st.Classes())))
	}
	return st.RepeatView(extra)
}

func FuzzPartition(f *testing.F) {
	f.Add([]byte{0, 3, 4, 0, 4, 5, 0x81, 5, 6, 2, 6, 7, 0x83, 3, 3, 1})
	f.Add([]byte{9, 0, 0, 0, 1, 12, 0xff, 12, 0, 0x80, 3, 3, 0x85, 4, 4, 0x86, 2, 9, 7})
	f.Add([]byte{3, 3, 4, 0x80, 4, 3, 0x81, 3, 3, 0x81, 4, 4, 0x80, 7, 8, 0x12, 8, 7, 0x34})
	f.Fuzz(func(t *testing.T, data []byte) {
		if v := partitionCase(data); v != nil {
			checkPartition(t, "fuzz", v)
		}
	})
}

// TestFitTreeViewScratchReuse fits large, small and large views in one
// goroutine, so pooled scratch sized and filled by one tree is handed
// to the next: every tree must equal a fit on fresh scratch. The same
// sequence then runs on one explicitly shared scratch, whose reuse does
// not depend on the pool's choices.
func TestFitTreeViewScratchReuse(t *testing.T) {
	large := partitionViews(mixedDataset(1500, 7))
	small := partitionViews(signedZeroDataset(60, 8))
	chain := partitionViews(chainDataset())
	var seq []*dataset.View
	for _, name := range []string{"repeat", "identity", "extend"} {
		seq = append(seq, large[name], small[name], chain[name], large[name])
	}
	shared := new(buildScratch)
	for i, v := range seq {
		want := fitView(v, new(buildScratch))
		got, err := (Learner{}).FitTreeView(v)
		if err != nil {
			t.Fatal(err)
		}
		if !nodesEqual(got.Root, want) {
			t.Fatalf("view %d: FitTreeView on pooled scratch differs from a fresh builder", i)
		}
		if !nodesEqual(fitView(v, shared), want) {
			t.Fatalf("view %d: fit on reused scratch differs from a fresh builder", i)
		}
	}
}
