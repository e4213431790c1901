package tree

import (
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
