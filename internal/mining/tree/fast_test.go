package tree

import (
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
// preserving: on missing-free data FitTree (the store-backed fast
// builder) and the general builder must produce identical trees.
func TestFastMatchesGeneral(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{NoPrune: true},
		{PlainGain: true},
		{MinLeaf: 5},
		{NoMDLPenalty: true},
		{MaxDepth: 3},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			d := mixedDataset(300, seed)
			fast, err := (Learner{Config: cfg}).FitTree(d)
			if err != nil {
				t.Fatal(err)
			}
			general := fitGeneral(cfg, d)
			if !treesEqual(fast.Root, general) {
				t.Errorf("cfg %+v seed %d: fast and general trees differ", cfg, seed)
			}
		}
	}
}

// mixedDataset mixes numeric and nominal attributes with an interaction
// concept and label noise.
func mixedDataset(n int, seed uint64) *dataset.Dataset {
	d := dataset.New("mixed", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
		dataset.NominalAttr("mode", "m0", "m1", "m2"),
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
		return treesEqual(fast.Root, fitGeneral(Config{}, d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestHasMissing(t *testing.T) {
	d := mixedDataset(10, 1)
	if d.HasMissing() {
		t.Fatal("no missing expected")
	}
	// Direct Values mutation bypasses the cache maintenance in Add, so
	// the cached answer must be dropped explicitly.
	d.Instances[3].Values[0] = dataset.Missing
	d.InvalidateMissing()
	if !d.HasMissing() {
		t.Fatal("missing not detected")
	}
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

func BenchmarkGeneralInduction(b *testing.B) {
	d := mixedDataset(5000, 1)
	// A single missing value routes induction through the general path.
	d.Instances[0].Values[0] = dataset.Missing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Learner{}).FitTree(d); err != nil {
			b.Fatal(err)
		}
	}
}

// numericSplitFullScan is the pre-boundary-point numericSplit, kept as
// the oracle: it scores every distinct-value cut that passes minLeaf.
func (fb *fastBuilder) numericSplitFullScan(sorted []int32, attr int, dist []float64, baseEntropy, totalW float64, out *split) bool {
	if len(sorted) < 2 {
		return false
	}
	col := fb.cols[attr]

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
	)
	for i := 0; i < len(sorted)-1; i++ {
		r := sorted[i]
		w := fb.weights[r]
		c := fb.classes[r]
		left[c] += w
		right[c] -= w
		leftW += w
		if col[r] == col[sorted[i+1]] {
			continue
		}
		distinct++
		if leftW < fb.cfg.minLeaf() || totalW-leftW < fb.cfg.minLeaf() {
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

// splitValues is the value pool of splitCase: duplicates, both zeros
// and both infinities.
var splitValues = []float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 0.5, 1, 2, 3, 4, 5, 7, math.Inf(1)}

// splitCase decodes bytes into a one-attribute store and a builder on
// its identity view. data[0] picks the class count (2 or 3) and the
// minLeaf (0, 1, 2, 5, half of the total weight, or just above half);
// data[1] picks unit or fractional weights. Each further byte pair is
// one row: a value from splitValues, and a class that follows the value
// (long same-class runs) or is free (mixed value groups).
func splitCase(data []byte) (fb *fastBuilder, sorted []int32, dist []float64, totalW float64) {
	if len(data) < 6 {
		return nil, nil, nil, 0
	}
	nClasses := 2 + int(data[0]%2)
	leafMode := int(data[0]/2) % 6
	fractional := data[1]%2 == 1
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
		w := 1.0
		if fractional {
			w = float64((cb>>2)&15+1) / 8
		}
		d.MustAdd(dataset.Instance{Values: []float64{splitValues[vi]}, Class: class, Weight: w})
	}
	v := dataset.NewStore(d, nil).IdentityView()
	fb = newViewBuilder(Config{}, v)
	dist = fb.distribution(v.Rows())
	totalW = sum(dist)
	fb.cfg.MinLeaf = []float64{0, 1, 2, 5, totalW / 2, totalW/2 + 0.125}[leafMode]
	return fb, v.Sorted()[0], dist, totalW
}

// checkNumericSplit runs the kernel and the full-scan oracle on one node
// and requires the same ok and the same split, bit for bit.
func checkNumericSplit(t *testing.T, fb *fastBuilder, sorted []int32, dist []float64, totalW float64) {
	t.Helper()
	base := entropy(dist)
	var got, want split
	gotOK := fb.numericSplit(sorted, 0, dist, base, totalW, &got)
	wantOK := fb.numericSplitFullScan(sorted, 0, dist, base, totalW, &want)
	if gotOK != wantOK {
		t.Fatalf("ok = %v, full scan %v (n=%d minLeaf=%v)", gotOK, wantOK, len(sorted), fb.cfg.MinLeaf)
	}
	if !gotOK {
		return
	}
	if got.attr != want.attr ||
		math.Float64bits(got.threshold) != math.Float64bits(want.threshold) ||
		math.Float64bits(got.gain) != math.Float64bits(want.gain) ||
		math.Float64bits(got.gainRatio) != math.Float64bits(want.gainRatio) {
		t.Fatalf("split %+v, full scan %+v (n=%d minLeaf=%v)", got, want, len(sorted), fb.cfg.MinLeaf)
	}
}

// TestNumericSplitMatchesFullScan pins the boundary-point scan to the
// full scan on random nodes: unit and fractional weights, mixed-class
// value groups, long same-class runs, ±0 and ±Inf, every minLeaf mode,
// two and three classes, and n from 2 up.
func TestNumericSplitMatchesFullScan(t *testing.T) {
	rng := stats.NewRNG(16)
	for iter := 0; iter < 20000; iter++ {
		data := make([]byte, 2+2*(2+rng.Intn(60)))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		fb, sorted, dist, totalW := splitCase(data)
		checkNumericSplit(t, fb, sorted, dist, totalW)
		// A child node: every other row, in the parent's sorted order.
		var half []int32
		for _, r := range sorted {
			if r%2 == 0 {
				half = append(half, r)
			}
		}
		if len(half) > 0 {
			dist := fb.distribution(half)
			checkNumericSplit(t, fb, half, dist, sum(dist))
		}
	}
}

func FuzzNumericSplit(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 4, 0x81, 5, 0, 6, 0x81})
	f.Add([]byte{9, 1, 0, 0, 1, 0, 12, 0xff, 12, 0x80, 3, 0x85, 4, 0x86})
	f.Add([]byte{5, 1, 3, 0x80, 4, 0x81, 3, 0x81, 4, 0x80, 7, 0x12, 8, 0x34})
	f.Fuzz(func(t *testing.T, data []byte) {
		fb, sorted, dist, totalW := splitCase(data)
		if fb == nil {
			return
		}
		checkNumericSplit(t, fb, sorted, dist, totalW)
	})
}

// TestNumericSplitScoresOnlyBoundaries proves the skip: on 50 rows of
// class 0 then 50 of class 1, all values distinct, the kernel scores
// only the first feasible cut, the one boundary point and the last
// feasible cut (six entropies), where the full scan scores 97.
func TestNumericSplitScoresOnlyBoundaries(t *testing.T) {
	d := dataset.New("runs", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"neg", "pos"})
	for i := 0; i < 100; i++ {
		d.MustAdd(dataset.Instance{Values: []float64{float64(i)}, Class: i / 50, Weight: 1})
	}
	v := dataset.NewStore(d, nil).IdentityView()
	fb := newViewBuilder(Config{}, v)
	dist := fb.distribution(v.Rows())
	var s split
	if !fb.numericSplit(v.Sorted()[0], 0, dist, entropy(dist), sum(dist), &s) {
		t.Fatal("no split found")
	}
	if s.threshold != 49 {
		t.Errorf("threshold %v, want 49", s.threshold)
	}
	if fb.scored > 3 {
		t.Errorf("scored %d cuts, want at most 3", fb.scored)
	}
	checkNumericSplit(t, fb, v.Sorted()[0], dist, sum(dist))
}

// partitionArena is the count-then-fill partition the builder used
// before the ping-pong buffers, kept as the oracle: every child's row
// list and per-attribute order are carved out of a fresh arena per
// node, re-testing the split once per row and attribute.
func (fb *fastBuilder) partitionArena(nd *fastNode, s *split) []fastNode {
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

	counts := make([]int, nBranches)
	for _, r := range nd.rows {
		counts[branchOf(r)]++
	}
	starts := make([]int, nBranches)
	off := 0
	for b := range counts {
		starts[b] = off
		off += counts[b]
	}

	n := len(nd.rows)
	nAttrs := len(fb.attrs)
	arena := make([]int32, n*(1+fb.nNumeric))
	hdrs := make([][]int32, nBranches*nAttrs)
	nodes := make([]fastNode, nBranches)

	rowsArena := arena[:n]
	for b := range nodes {
		nodes[b].rows = rowsArena[starts[b] : starts[b]+counts[b]]
		nodes[b].sorted = hdrs[b*nAttrs : (b+1)*nAttrs]
	}
	fill := make([]int, nBranches)
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
		for _, r := range nd.order(a) {
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

// buildArena is build with partitionArena in place of partition.
func (fb *fastBuilder) buildArena(nd *fastNode, depthSoFar int) *Node {
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
	children := fb.partitionArena(nd, best)
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
		node.Children[i] = fb.buildArena(&children[i], depthSoFar+1)
	}
	return node
}

// fitArena grows the oracle's tree for a view (pruned unless cfg says
// otherwise), as fitView does with ping-pong partitioning.
func fitArena(cfg Config, v *dataset.View) *Node {
	root := newViewBuilder(cfg, v).buildArena(&fastNode{rows: v.Rows(), sorted: v.Sorted()}, 0)
	if !cfg.NoPrune {
		prune(root, cfg.confidence())
	}
	return root
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
			for a, attr := range d.Attrs {
				if attr.Type == dataset.Numeric {
					vs[a] += 0.001 * float64(i%5)
				}
			}
			syn = append(syn, dataset.Synthetic{Values: vs, Class: in.Class, Weight: in.Weight})
		}
	}
	return map[string]*dataset.View{
		"identity": st.IdentityView(),
		"repeat":   st.RepeatView(extra),
		"extend":   st.ExtendView(syn),
	}
}

// checkPartition fits the view with ping-pong partitioning on fresh
// scratch and with the arena oracle, requiring the same tree, and
// returns its depth.
func checkPartition(t *testing.T, name string, cfg Config, v *dataset.View) int {
	t.Helper()
	got := fitView(cfg, v, new(buildScratch))
	want := fitArena(cfg, v)
	if !nodesEqual(got, want) {
		t.Fatalf("%s cfg %+v: ping-pong and arena trees differ", name, cfg)
	}
	return depth(got)
}

// chainDataset peels one small pure leaf off per split: class
// alternates across eight bands of x, each band smaller than the last,
// so the tree is a deep, very unbalanced chain.
func chainDataset(weight func(i int) float64) *dataset.Dataset {
	d := dataset.New("chain", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("noise"),
	}, []string{"neg", "pos"})
	rng := stats.NewRNG(5)
	i := 0
	for band, size := 0, 256; size >= 2; band, size = band+1, size/2 {
		for k := 0; k < size; k++ {
			d.MustAdd(dataset.Instance{Values: []float64{float64(band) + float64(k)/float64(size), rng.Float64()}, Class: band % 2, Weight: weight(i)})
			i++
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

// wideNominalDataset makes a 300-valued nominal attribute the only
// informative one. Values v and v−256 carry opposite classes, so a
// branch index that wraps at 256 sends rows to the wrong child.
func wideNominalDataset(seed uint64) *dataset.Dataset {
	values := make([]string, 300)
	for i := range values {
		values[i] = fmt.Sprintf("v%d", i)
	}
	d := dataset.New("wide", []dataset.Attribute{
		dataset.NumericAttr("noise"),
		dataset.NominalAttr("code", values...),
	}, []string{"neg", "pos"})
	rng := stats.NewRNG(seed)
	for i := 0; i < 1200; i++ {
		v := rng.Intn(300)
		class := v % 2
		if v >= 256 {
			class = 1 - class
		}
		d.MustAdd(dataset.Instance{Values: []float64{rng.Float64(), float64(v)}, Class: class, Weight: 1})
	}
	return d
}

// TestPartitionMatchesArena pins ping-pong partitioning to the arena
// oracle on whole trees, node for node: unit and fractional weights,
// ±0 thresholds and duplicates, very unbalanced chains, nominal splits
// (one with 300 values), and trees deep enough that both ping-pong
// buffers are written and overwritten several times.
func TestPartitionMatchesArena(t *testing.T) {
	fractional := func(d *dataset.Dataset) *dataset.Dataset {
		for i := range d.Instances {
			d.Instances[i].Weight = float64(i%7+1) / 4
		}
		return d
	}
	cases := map[string]*dataset.Dataset{
		"mixed":            mixedDataset(600, 1),
		"mixed-fractional": fractional(mixedDataset(600, 2)),
		"zeros":            signedZeroDataset(400, 3),
		"zeros-fractional": fractional(signedZeroDataset(400, 4)),
		"chain":            chainDataset(func(int) float64 { return 1 }),
		"chain-fractional": chainDataset(func(i int) float64 { return float64(i%5+1) / 2 }),
		"wide-nominal":     wideNominalDataset(6),
	}
	deepest := 0
	for name, d := range cases {
		for vname, v := range partitionViews(d) {
			for _, cfg := range []Config{{NoPrune: true}, {}, {NoPrune: true, MinLeaf: 1}} {
				deepest = max(deepest, checkPartition(t, name+"/"+vname, cfg, v))
			}
		}
	}
	if deepest < 4 {
		t.Fatalf("deepest tree has %d levels; the cases must reach 4", deepest)
	}
	// The wide case must actually split on the 300-valued attribute.
	v := dataset.NewStore(cases["wide-nominal"], nil).IdentityView()
	if root := fitView(Config{}, v, new(buildScratch)); root.Attr != 1 || len(root.Children) != 300 {
		t.Fatalf("wide-nominal root splits attr %d into %d branches, want attr 1 into 300", root.Attr, len(root.Children))
	}
}

// partitionCase decodes bytes into a view for FuzzPartition. data[0]
// picks unit or fractional weights and the minLeaf; data[1] how many
// rows get a duplicate (a repeat view when non-zero). Each further
// triple is one row: x and y from splitValues, and a byte whose low
// bits pick a 5-valued nominal and whose top bit flips the class that
// otherwise follows x.
func partitionCase(data []byte) (Config, *dataset.View) {
	if len(data) < 8 {
		return Config{}, nil
	}
	cfg := Config{NoPrune: true, MinLeaf: []float64{1, 2, 3}[data[0]%3]}
	fractional := data[0]&4 != 0
	dups := int(data[1])
	rows := data[2:]
	if len(rows) > 3*256 {
		rows = rows[:3*256]
	}
	d := dataset.New("fuzz", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
		dataset.NominalAttr("m", "a", "b", "c", "d", "e"),
	}, []string{"neg", "pos"})
	for i := 0; i+2 < len(rows); i += 3 {
		xi := int(rows[i]) % len(splitValues)
		y := splitValues[int(rows[i+1])%len(splitValues)]
		b := rows[i+2]
		class := xi * 2 / len(splitValues)
		if b&0x80 != 0 {
			class = 1 - class
		}
		w := 1.0
		if fractional {
			w = float64((b>>3)&15+1) / 8
		}
		d.MustAdd(dataset.Instance{Values: []float64{splitValues[xi], y, float64(b % 5)}, Class: class, Weight: w})
	}
	if d.Len() == 0 {
		return Config{}, nil
	}
	st := dataset.NewStore(d, nil)
	if dups == 0 {
		return cfg, st.IdentityView()
	}
	extra := make([]int32, 0, dups)
	for i := 0; i < dups; i++ {
		extra = append(extra, int32(i*7%len(st.Classes())))
	}
	return cfg, st.RepeatView(extra)
}

func FuzzPartition(f *testing.F) {
	f.Add([]byte{0, 0, 3, 4, 0, 4, 5, 0x81, 5, 6, 2, 6, 7, 0x83, 3, 3, 1})
	f.Add([]byte{5, 9, 0, 0, 0, 1, 12, 0xff, 12, 0, 0x80, 3, 3, 0x85, 4, 4, 0x86, 2, 9, 7})
	f.Add([]byte{1, 3, 3, 4, 0x80, 4, 3, 0x81, 3, 3, 0x81, 4, 4, 0x80, 7, 8, 0x12, 8, 7, 0x34})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, v := partitionCase(data)
		if v == nil {
			return
		}
		checkPartition(t, "fuzz", cfg, v)
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
	wide := partitionViews(wideNominalDataset(9))
	var seq []*dataset.View
	for _, name := range []string{"repeat", "identity", "extend"} {
		seq = append(seq, large[name], small[name], wide[name], large[name])
	}
	shared := new(buildScratch)
	for i, v := range seq {
		want := fitView(Config{}, v, new(buildScratch))
		got, err := (Learner{}).FitTreeView(v)
		if err != nil {
			t.Fatal(err)
		}
		if !nodesEqual(got.Root, want) {
			t.Fatalf("view %d: FitTreeView on pooled scratch differs from a fresh builder", i)
		}
		if !nodesEqual(fitView(Config{}, v, shared), want) {
			t.Fatalf("view %d: fit on reused scratch differs from a fresh builder", i)
		}
	}
}
