package tree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
// preserving: FitTree (the store-backed group builder) and the
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
// differently. A two-class case is held to it again as a SMOTE-shaped
// view (smoteView). A three-class case must be refused, as the builder
// counts two classes; the general builder still grows its tree.
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
		want := fitGeneral(d)
		got, err := (Learner{}).FitTree(d)
		if len(d.ClassValues) > maxClasses {
			if err != errTooManyClasses {
				t.Fatalf("%d classes: err = %v, want a refusal", len(d.ClassValues), err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !sameTreeUpToZeroSign(got.Root, want) {
			t.Fatalf("FitTree differs from the general builder\n%s", got)
		}
		// The same rows, SMOTE-shaped: stretches wherever distinct
		// class-1 synthetic values fall between two of their values.
		v := smoteView(dataset.NewStore(d, nil), 0.25, 0.5, 0.9375)
		defer v.Release()
		got, err = (Learner{}).FitTreeView(v)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTreeUpToZeroSign(got.Root, fitGeneral(v.Materialize())) {
			t.Fatalf("FitTreeView on a SMOTE view differs from the general builder\n%s", got)
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

// numericSplitFullScan is the split scan over sorted rows that scores
// every distinct-value cut, kept as the oracle of the group builder's
// scan: it adds each row's weight of 1 in sorted order and scores every
// cut that passes minLeaf.
func (b *groupBuilder) numericSplitFullScan(sorted []int32, attr int, dist []float64, baseEntropy float64, out *split) bool {
	if len(sorted) < 2 {
		return false
	}
	col := b.cols[attr]
	totalW := sum(dist)

	left := make([]float64, b.nClasses)
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
		c := b.cls[r]
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
func (b *groupBuilder) classDist(rows []int32) []float64 {
	dist := make([]float64, b.nClasses)
	for _, r := range rows {
		dist[b.cls[r]]++
	}
	return dist
}

// classOnes is the class-1 count of a distribution.
func classOnes(dist []float64) int {
	if len(dist) < 2 {
		return 0
	}
	return int(dist[1])
}

// groupOrder expands attribute a's group list of v into an ascending
// row order: the view's rows, duplicates included, group by group in
// list order, and in row-list order within a group; a stretch's rows,
// whose values are distinct, in ascending order of value.
func groupOrder(v *dataset.View, a int) []int32 {
	return nodeOrder(v, a, v.Groups()[a], v.Rows())
}

// nodeOrder is groupOrder over a node holding the given rows, whose
// list of attribute a is list.
func nodeOrder(v *dataset.View, a int, list []dataset.Group, rows []int32) []int32 {
	rg, col := v.RowGroups()[a], v.Cols()[a]
	byGroup := make(map[int32][]int32)
	for _, r := range rows {
		byGroup[rg[r]] = append(byGroup[rg[r]], r)
	}
	var order []int32
	for _, g := range list {
		members := byGroup[g.ID]
		if g.Run < 0 {
			slices.SortFunc(members, func(x, y int32) int { return cmp.Compare(col[x], col[y]) })
		}
		order = append(order, members...)
	}
	return order
}

// countList counts rows into the entries of list, attribute a's list
// of a node holding them: the list of that node, without the entries
// the rows leave empty, as partition builds it, but regrouped from
// scratch.
func (b *groupBuilder) countList(list []dataset.Group, a int, rows []int32) []dataset.Group {
	counts := make(map[int32]dataset.Group)
	for _, r := range rows {
		id := b.rowGroup[a][r]
		c := counts[id]
		c.N++
		c.Ones += int32(b.cls[r])
		counts[id] = c
	}
	var out []dataset.Group
	for _, g := range list {
		if c := counts[g.ID]; c.N > 0 {
			out = append(out, dataset.Group{ID: g.ID, Run: g.Run, N: c.N, Ones: c.Ones})
		}
	}
	return out
}

// splitValues is the value pool of splitCase: duplicates, both zeros
// and both infinities.
var splitValues = []float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 0.5, 1, 2, 3, 4, 5, 7, math.Inf(1)}

// splitCase decodes bytes into a one-attribute, two-class store. data[0]
// and data[1] are skipped. Each further byte pair is one row: a value
// from splitValues, and a class that follows the value (long same-class
// runs) or is free (mixed value groups).
func splitCase(data []byte) *dataset.Store {
	if len(data) < 6 {
		return nil
	}
	rows := data[2:]
	if len(rows) > 128 {
		rows = rows[:128]
	}
	d := dataset.New("split", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"c0", "c1"})
	for i := 0; i+1 < len(rows); i += 2 {
		vi := int(rows[i]) % len(splitValues)
		cb := rows[i+1]
		class := vi * 2 / len(splitValues)
		if cb&0x80 != 0 {
			class = int(cb) % 2
		}
		d.MustAdd(dataset.Instance{Values: []float64{splitValues[vi]}, Class: class, Weight: 1})
	}
	return dataset.NewStore(d, nil)
}

// checkScan runs the group scan on a node holding the given rows of v
// (all of them when rows is nil) and the full-scan oracle on the same
// rows in sorted order, and requires the same ok and the same split,
// bit for bit, threshold included, with the left side's class-1 rows
// and entries counted right.
func checkScan(t *testing.T, v *dataset.View, rows []int32) {
	t.Helper()
	if rows == nil {
		rows = v.Rows()
	}
	b := newViewBuilder(v, new(buildScratch))
	list := b.countList(v.Groups()[0], 0, rows)
	sorted := nodeOrder(v, 0, list, rows)
	dist := b.classDist(sorted)
	base := entropy(dist)
	var got, want split
	gotOK := b.scan(list, 0, len(sorted), classOnes(dist), base, &got)
	wantOK := b.numericSplitFullScan(sorted, 0, dist, base, &want)
	if gotOK != wantOK {
		t.Fatalf("ok = %v, full scan %v (n=%d)", gotOK, wantOK, len(sorted))
	}
	if !gotOK {
		return
	}
	b.threshold(&got, list, rows)
	if got.attr != want.attr || got.leftN != want.leftN ||
		math.Float64bits(got.threshold) != math.Float64bits(want.threshold) ||
		math.Float64bits(got.gain) != math.Float64bits(want.gain) ||
		math.Float64bits(got.gainRatio) != math.Float64bits(want.gainRatio) {
		t.Fatalf("split %+v, full scan %+v (n=%d)", got, want, len(sorted))
	}
	if ones := classOnes(b.classDist(sorted[:got.leftN])); got.leftOnes != ones {
		t.Fatalf("left class-1 rows %d, want %d", got.leftOnes, ones)
	}
	n := got.leftPart
	if n > 0 && list[got.leftGroups].Run >= 0 {
		t.Fatalf("cut inside entry %+v, not a stretch", list[got.leftGroups])
	}
	for _, g := range list[:got.leftGroups] {
		n += int(g.N)
	}
	if n != got.leftN {
		t.Fatalf("left entries hold %d rows, want %d", n, got.leftN)
	}
}

// smoteView is the SMOTE shape of a one-attribute store: every class-1
// row interpolated towards the next class-1 row in row order at each
// of qs, so most synthetic values are distinct and of class 1, and
// gather into stretches between the store's values.
func smoteView(st *dataset.Store, qs ...float64) *dataset.View {
	var ones []int32
	for r, c := range st.Classes() {
		if c == 1 {
			ones = append(ones, int32(r))
		}
	}
	var plan []dataset.Interpolation
	for i, r := range ones {
		for _, q := range qs {
			plan = append(plan, dataset.Interpolation{Seed: r, Neighbor: ones[(i+1)%len(ones)], Q: q})
		}
	}
	return st.InterpolateView(plan)
}

// checkScanAndHalf checks the scan on the store's identity view, on the
// select view of its even rows, a child-shaped node whose groups keep
// part of their rows, and on a SMOTE view of it, whole and on a node of
// every other row, whose stretches keep part of theirs.
func checkScanAndHalf(t *testing.T, st *dataset.Store) {
	t.Helper()
	checkScan(t, st.IdentityView(), nil)
	var half []int32
	for r := range st.Classes() {
		if r%2 == 0 {
			half = append(half, int32(r))
		}
	}
	if len(half) > 0 {
		checkScan(t, st.SelectView(half), nil)
	}
	v := smoteView(st, 0.25, 0.5, 0.75, 0.9375)
	defer v.Release()
	checkScan(t, v, nil)
	var rows []int32
	for i, r := range v.Rows() {
		if i%2 == 1 {
			rows = append(rows, r)
		}
	}
	if len(rows) > 0 {
		checkScan(t, v, rows)
	}
}

// TestNumericSplitMatchesFullScan pins the group builder's
// boundary-point skip-scan to the full float scan on random nodes:
// mixed-class value groups, long same-class runs, ±0 and ±Inf, and n
// from 2 up, so the minLeaf gate cuts into runs at both ends.
func TestNumericSplitMatchesFullScan(t *testing.T) {
	rng := stats.NewRNG(16)
	for iter := 0; iter < 20000; iter++ {
		data := make([]byte, 2+2*(2+rng.Intn(60)))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		checkScanAndHalf(t, splitCase(data))
	}
}

func FuzzNumericSplit(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 4, 0x81, 5, 0, 6, 0x81})
	f.Add([]byte{9, 1, 0, 0, 1, 0, 12, 0xff, 12, 0x80, 3, 0x85, 4, 0x86})
	f.Add([]byte{5, 1, 3, 0x80, 4, 0x81, 3, 0x81, 4, 0x80, 7, 0x12, 8, 0x34})
	f.Fuzz(func(t *testing.T, data []byte) {
		if st := splitCase(data); st != nil {
			checkScanAndHalf(t, st)
		}
	})
}

// TestNumericSplitScoresOnlyBoundaries proves the skip: on 50 rows of
// class 0 then 50 of class 1, all values distinct, the scan scores only
// the first feasible cut, the one boundary point and the last feasible
// cut, where the full scan scores 97.
func TestNumericSplitScoresOnlyBoundaries(t *testing.T) {
	d := dataset.New("runs", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"neg", "pos"})
	for i := 0; i < 100; i++ {
		d.MustAdd(dataset.Instance{Values: []float64{float64(i)}, Class: i / 50, Weight: 1})
	}
	v := dataset.NewStore(d, nil).IdentityView()
	b := newViewBuilder(v, new(buildScratch))
	var s split
	if !b.scan(v.Groups()[0], 0, 100, 50, 1, &s) {
		t.Fatal("no split found")
	}
	if s.threshold != 49 || s.leftN != 50 || s.leftOnes != 0 || s.leftGroups != 50 {
		t.Errorf("threshold %v leftN %d leftOnes %d leftGroups %d, want 49, 50, 0 and 50", s.threshold, s.leftN, s.leftOnes, s.leftGroups)
	}
	if b.scored > 3 {
		t.Errorf("scored %d cuts, want at most 3", b.scored)
	}
	checkScan(t, v, nil)
}

// TestNumericSplitConstantNode: a node whose attribute holds one value
// (both zeros count as one) has no cut, and the scan scores nothing.
func TestNumericSplitConstantNode(t *testing.T) {
	d := dataset.New("flat", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"neg", "pos"})
	for i := 0; i < 20; i++ {
		d.MustAdd(dataset.Instance{Values: []float64{math.Copysign(0, float64(i%2)-0.5)}, Class: i % 2, Weight: 1})
	}
	v := dataset.NewStore(d, nil).IdentityView()
	if len(v.Groups()[0]) < 2 {
		t.Fatalf("%d groups; the zeros must alternate", len(v.Groups()[0]))
	}
	b := newViewBuilder(v, new(buildScratch))
	var s split
	if b.scan(v.Groups()[0], 0, 20, 10, 1, &s) || b.scored != 0 {
		t.Fatalf("constant attribute split (scored %d)", b.scored)
	}
}

// partitionArena is the partition oracle: it splits the node's rows
// into fresh per-child slices by re-testing the split on every row, and
// regroups each child from scratch, counting every one of its rows into
// fresh per-group counts and walking the node's lists, with no
// smaller-child subtraction, no shared list buffer and no in-place row
// split. Every child's distribution is counted from its rows.
func (b *groupBuilder) partitionArena(nd *groupNode, s *split, rows []int32) ([]groupNode, [][]int32) {
	col := b.cols[s.attr]
	childRows := make([][]int32, 2)
	for _, r := range rows {
		k := 0
		if col[r] > s.threshold {
			k = 1
		}
		childRows[k] = append(childRows[k], r)
	}
	nodes := make([]groupNode, 2)
	for k := range nodes {
		dist := b.classDist(childRows[k])
		nodes[k] = groupNode{n: len(childRows[k]), ones: classOnes(dist), dist: dist, groups: make([][]dataset.Group, len(b.attrs))}
		for a := range b.attrs {
			nodes[k].groups[a] = b.countList(nd.groups[a], a, childRows[k])
		}
	}
	return nodes, childRows
}

// buildArena is build with partitionArena in place of partition; rows
// is the node's row list.
func (b *groupBuilder) buildArena(nd *groupNode, rows []int32) *Node {
	node := &Node{Attr: -1, Dist: nd.dist, Class: argmax(nd.dist)}
	if certainLeaf(nd.n, nd.dist) {
		return node
	}
	best := b.bestSplit(nd, rows)
	if best == nil {
		return node
	}
	children, childRows := b.partitionArena(nd, best, rows)
	for i := range children {
		if children[i].n < minLeaf {
			return node
		}
	}
	node.Attr = best.attr
	node.Threshold = best.threshold
	node.Children = make([]*Node, len(children))
	for i := range children {
		node.Children[i] = b.buildArena(&children[i], childRows[i])
	}
	return node
}

// growArena grows the oracle's unpruned tree for a view, as grow does
// with the smaller-child partition. The root's rows are the view's own,
// in instance order.
func growArena(v *dataset.View) *Node {
	b := newViewBuilder(v, new(buildScratch))
	rows := v.Rows()
	dist := b.classDist(rows)
	return b.buildArena(&groupNode{n: len(rows), ones: classOnes(dist), dist: dist, groups: v.Groups()}, rows)
}

// partitionViews builds the view shapes the refinement grid trains on
// from one dataset: identity, a repeat view with duplicates of every
// third row, an extend view whose synthetics interpolate from every
// fourth row a small step towards the next (none for every fifth of
// them, which tie their seed's values), and a SMOTE-shaped one
// (smoteView), whose lists are mostly stretches.
func partitionViews(d *dataset.Dataset) map[string]*dataset.View {
	st := dataset.NewStore(d, nil)
	var extra []int32
	var plan []dataset.Interpolation
	n := len(st.Classes())
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			extra = append(extra, int32(i), int32(i))
		}
		if i%4 == 0 {
			plan = append(plan, dataset.Interpolation{Seed: int32(i), Neighbor: int32((i + 1) % n), Q: 0.01 * float64(i%5)})
		}
	}
	return map[string]*dataset.View{
		"identity": st.IdentityView(),
		"repeat":   st.RepeatView(extra),
		"extend":   st.InterpolateView(plan),
		"smote":    smoteView(st, 0.25, 0.5, 0.75),
	}
}

// checkPartition grows the view's unpruned tree with the smaller-child
// partition on fresh scratch and with the arena oracle, requiring the
// same tree, and every child's lists to count its rows (growChecked);
// it returns the tree's depth. Pruning reads only the grown tree, so
// equal grown trees prune alike.
func checkPartition(t *testing.T, name string, v *dataset.View) int {
	t.Helper()
	got := grow(v, new(buildScratch))
	if !nodesEqual(got, growArena(v)) {
		t.Fatalf("%s: group and arena trees differ", name)
	}
	b := newViewBuilder(v, new(buildScratch))
	b.growChecked(t, name, v, b.root(v), 0)
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

// TestPartitionMatchesArena pins the smaller-child partition to the
// arena oracle on whole trees, node for node: ±0 thresholds and
// duplicates, very unbalanced chains, and trees deep enough that the
// list buffer's regions are written and overwritten several times.
func TestPartitionMatchesArena(t *testing.T) {
	cases := map[string]*dataset.Dataset{
		"mixed": mixedDataset(600, 1),
		"zeros": signedZeroDataset(400, 3),
		"chain": chainDataset(),
		// Far more rows than groups: the slabs are far shorter than
		// the row list (slabSize).
		"few groups": signedZeroDataset(3000, 4),
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
// is how many rows get a duplicate (a repeat view when non-zero), or,
// with its top bit set, asks for a SMOTE-shaped view (smoteView). Each
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
	switch {
	case dups == 0:
		return st.IdentityView()
	case dups >= 0x80:
		return smoteView(st, 0.25, 0.5, 0.9375)
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
	f.Add([]byte{0x80, 6, 6, 0, 8, 7, 1, 9, 9, 2, 10, 8, 3, 7, 6, 0x84, 1, 2, 0, 8, 8, 1, 9, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if v := partitionCase(data); v != nil {
			checkPartition(t, "fuzz", v)
			v.Release()
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
