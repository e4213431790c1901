package dataset

import (
	"math"
	"slices"
	"sort"
	"testing"

	"edem/internal/stats"
)

func storeTestDataset(n int, seed uint64) *Dataset {
	attrs := []Attribute{
		NumericAttr("x"),
		NominalAttr("mode", "a", "b", "c"),
		NumericAttr("y"),
	}
	d := New("store-test", attrs, []string{"neg", "pos"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		mode := float64(rng.Intn(3))
		y := rng.Float64() * 5
		class := 0
		if x > 7 {
			class = 1
		}
		d.MustAdd(Instance{Values: []float64{x, mode, y}, Class: class, Weight: 1})
	}
	return d
}

// checkSorted verifies a view's per-attribute orders: each numeric
// order must be a value-ascending permutation of exactly the view's
// rows (duplicates included).
func checkSorted(t *testing.T, v *View) {
	t.Helper()
	want := make(map[int32]int)
	for _, r := range v.Rows() {
		want[r]++
	}
	for a, attr := range v.Attrs() {
		if attr.Type != Numeric {
			if v.Sorted()[a] != nil {
				t.Fatalf("attr %d: nominal attribute has a sort order", a)
			}
			continue
		}
		idx := v.Sorted()[a]
		if len(idx) != v.Len() {
			t.Fatalf("attr %d: sorted len %d, want %d", a, len(idx), v.Len())
		}
		col := v.Cols()[a]
		got := make(map[int32]int)
		for i, r := range idx {
			got[r]++
			if i > 0 && col[idx[i-1]] > col[r] {
				t.Fatalf("attr %d: order violated at %d (%v > %v)", a, i, col[idx[i-1]], col[r])
			}
		}
		for r, c := range want {
			if got[r] != c {
				t.Fatalf("attr %d: row %d appears %d times in order, want %d", a, r, got[r], c)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("attr %d: order covers %d distinct rows, want %d", a, len(got), len(want))
		}
	}
}

func TestStoreMatchesSubset(t *testing.T) {
	d := storeTestDataset(60, 3)
	rows := []int{5, 1, 12, 40, 33, 7}
	st := NewStore(d, rows)
	sub := d.Subset(rows)
	md := st.IdentityView().Materialize()
	if md.Len() != sub.Len() {
		t.Fatalf("store holds %d rows, want %d", md.Len(), sub.Len())
	}
	for i := range sub.Instances {
		a, b := sub.Instances[i], md.Instances[i]
		if a.Class != b.Class || a.Weight != b.Weight {
			t.Fatalf("row %d: class/weight mismatch", i)
		}
		for j := range a.Values {
			if a.Values[j] != b.Values[j] {
				t.Fatalf("row %d attr %d: %v != %v", i, j, a.Values[j], b.Values[j])
			}
		}
	}
	checkSorted(t, st.IdentityView())
}

func TestStoreSortMatchesSortSlice(t *testing.T) {
	// The store's permutation must equal sort.Slice on the same
	// comparator and input sequence — ties included.
	d := storeTestDataset(100, 9)
	// Force ties.
	for i := 0; i < 100; i += 3 {
		d.Instances[i].Values[0] = 5
	}
	st := NewStore(d, nil)
	for a, attr := range d.Attrs {
		if attr.Type != Numeric {
			continue
		}
		want := make([]int32, d.Len())
		for i := range want {
			want[i] = int32(i)
		}
		col := st.Cols()[a]
		sort.Slice(want, func(i, j int) bool { return col[want[i]] < col[want[j]] })
		got := st.sorted[a]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("attr %d: permutation diverges at %d: %d != %d", a, i, got[i], want[i])
			}
		}
	}
}

func TestSelectView(t *testing.T) {
	d := storeTestDataset(50, 5)
	st := NewStore(d, nil)
	rows := []int32{49, 3, 17, 8, 30}
	v := st.SelectView(rows)
	if v.Len() != len(rows) {
		t.Fatalf("len %d, want %d", v.Len(), len(rows))
	}
	checkSorted(t, v)
	md := v.Materialize()
	for i, r := range rows {
		if md.Instances[i].Values[0] != d.Instances[r].Values[0] {
			t.Fatalf("row %d: wrong instance", i)
		}
	}
}

func TestRepeatView(t *testing.T) {
	d := storeTestDataset(40, 7)
	st := NewStore(d, nil)
	extra := []int32{3, 3, 17, 0, 39, 3}
	v := st.RepeatView(extra)
	if v.Len() != 40+len(extra) {
		t.Fatalf("len %d, want %d", v.Len(), 40+len(extra))
	}
	if v.Appended() != len(extra) {
		t.Fatalf("appended %d, want %d", v.Appended(), len(extra))
	}
	checkSorted(t, v)
	md := v.Materialize()
	for i, r := range extra {
		got := md.Instances[40+i]
		if got.Values[0] != d.Instances[r].Values[0] || got.Class != d.Instances[r].Class {
			t.Fatalf("duplicate %d: wrong source row", i)
		}
	}
}

func TestExtendView(t *testing.T) {
	d := storeTestDataset(30, 11)
	st := NewStore(d, nil)
	syn := []Synthetic{
		{Values: []float64{2.5, 1, 0.5}, Class: 1, Weight: 1},
		{Values: []float64{9.9, 0, 4.4}, Class: 1, Weight: 1},
		{Values: []float64{0.1, 2, 2.2}, Class: 1, Weight: 1},
	}
	v := st.ExtendView(syn)
	if v.Len() != 33 || v.Appended() != 3 {
		t.Fatalf("len %d appended %d", v.Len(), v.Appended())
	}
	checkSorted(t, v)
	md := v.Materialize()
	for i, s := range syn {
		got := md.Instances[30+i]
		if got.Class != s.Class {
			t.Fatalf("synthetic %d: class %d", i, got.Class)
		}
		for j := range s.Values {
			if got.Values[j] != s.Values[j] {
				t.Fatalf("synthetic %d attr %d: %v != %v", i, j, got.Values[j], s.Values[j])
			}
		}
	}
}

// Base rows must win ties against synthetic rows in the merged order,
// as they precede synthetics in the materialised view's instance order.
func TestExtendViewTieOrder(t *testing.T) {
	d := New("ties", []Attribute{NumericAttr("x")}, []string{"n", "p"})
	for _, x := range []float64{1, 2, 2, 3} {
		d.MustAdd(Instance{Values: []float64{x}, Class: 0, Weight: 1})
	}
	st := NewStore(d, nil)
	v := st.ExtendView([]Synthetic{{Values: []float64{2}, Class: 1, Weight: 1}})
	idx := v.Sorted()[0]
	want := []int32{0, 1, 2, 4, 3}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("merged order %v, want %v", idx, want)
		}
	}
}

// checkExtendOrder holds every numeric order of an extend view over st
// to the view contract: each view row exactly once, values ascending,
// the base rows in the store's order, and no base row after a
// synthetic one of the same value. The order of synthetic rows within
// a value group is free: it cannot change a unit-weight tree.
func checkExtendOrder(t *testing.T, st *Store, v *View) {
	t.Helper()
	n := st.n
	for a, got := range v.Sorted() {
		if got == nil {
			continue
		}
		col := v.Cols()[a]
		seen := make([]bool, v.Len())
		var base []int32
		for k, r := range got {
			if r < 0 || int(r) >= v.Len() || seen[r] {
				t.Fatalf("attr %d: row %d missing, repeated or out of range at %d", a, r, k)
			}
			seen[r] = true
			if int(r) < n {
				base = append(base, r)
			}
			if k == 0 {
				continue
			}
			prev := got[k-1]
			if col[prev] > col[r] {
				t.Fatalf("attr %d: order violated at %d (%v > %v)", a, k, col[prev], col[r])
			}
			if col[prev] == col[r] && int(prev) >= n && int(r) < n {
				t.Fatalf("attr %d: base row %d follows synthetic row %d in one value group", a, r, prev)
			}
		}
		if len(got) != v.Len() {
			t.Fatalf("attr %d: order holds %d rows, want %d", a, len(got), v.Len())
		}
		if !slices.Equal(base, st.sorted[a]) {
			t.Fatalf("attr %d: base rows %v, want the store's order %v", a, base, st.sorted[a])
		}
	}
}

// extendPool is the value pool of the extend-view checks: duplicates,
// both zeros and both infinities.
var extendPool = []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, 2, math.Inf(1)}

// TestExtendViewMatchesSortSliceOrder holds the merged orders to the
// view contract (checkExtendOrder) on random base and synthetic values
// with ties, ±0 and ±Inf, whose seeds point at rows of equal and of
// different values. Tie order within a group is free, because trees of
// unit-weight views read a group only through its class counts; the
// one exception is which of -0 and +0 a threshold prints, and base rows
// first keeps that as it was.
func TestExtendViewMatchesSortSliceOrder(t *testing.T) {
	rng := stats.NewRNG(27)
	value := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.Float64()
		}
		return extendPool[rng.Intn(len(extendPool))]
	}
	for iter := 0; iter < 300; iter++ {
		d := New("ties", []Attribute{NumericAttr("x"), NumericAttr("y")}, []string{"n", "p"})
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			d.MustAdd(Instance{Values: []float64{value(), value()}, Weight: 1})
		}
		syn := make([]Synthetic, 1+rng.Intn(400))
		for j := range syn {
			seed := rng.Intn(n)
			vs := []float64{value(), value()}
			for a := range vs {
				if rng.Intn(2) == 0 {
					vs[a] = d.Instances[seed].Values[a]
				}
			}
			syn[j] = Synthetic{Values: vs, Class: 1, Weight: 1, Seed: seed}
		}
		st := NewStore(d, nil)
		checkExtendOrder(t, st, st.ExtendView(syn))
	}
}

// FuzzExtendView holds ExtendView to the view contract on arbitrary
// inputs. data[0] sets the base row count; each further byte pair is
// one row's value (from extendPool, or a fresh value from the byte) and,
// for synthetic rows, its seed and whether it copies the seed's value.
func FuzzExtendView(f *testing.F) {
	f.Add([]byte{3, 0, 0, 3, 0, 7, 0, 2, 0x81, 3, 0x82, 5, 0x80})
	f.Add([]byte{5, 2, 0, 3, 0, 2, 0, 3, 0, 9, 0, 2, 0x83, 3, 0x84, 2, 0x01, 3, 0x02})
	f.Add([]byte{1, 7, 0, 0, 0x80, 7, 0x80, 1, 0x00, 200, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		value := func(b byte) float64 {
			if b >= 128 {
				return float64(b-128) / 16
			}
			return extendPool[int(b)%len(extendPool)]
		}
		n := 1 + int(data[0])%64
		rows := data[1:]
		if len(rows) < 2*n+2 {
			return
		}
		d := New("fuzz", []Attribute{NumericAttr("x")}, []string{"n", "p"})
		for i := 0; i < n; i++ {
			d.MustAdd(Instance{Values: []float64{value(rows[2*i])}, Weight: 1})
		}
		var syn []Synthetic
		for i := 2 * n; i+1 < len(rows); i += 2 {
			seed := int(rows[i+1]&0x7f) % (n + 1) // n: a seed outside the store
			x := value(rows[i])
			if rows[i+1]&0x80 != 0 && seed < n {
				x = d.Instances[seed].Values[0]
			}
			syn = append(syn, Synthetic{Values: []float64{x}, Class: 1, Weight: 1, Seed: seed})
		}
		st := NewStore(d, nil)
		v := st.ExtendView(syn)
		checkExtendOrder(t, st, v)
		v.Release()
	})
}

func TestStoreMissingDisablesSorted(t *testing.T) {
	d := storeTestDataset(20, 13)
	d.Instances[4].Values[2] = Missing
	st := NewStore(d, nil)
	if !st.HasMissing() {
		t.Fatal("missing not detected")
	}
	if st.sorted != nil {
		t.Fatal("sorted orders built despite missing values")
	}
	for _, v := range []*View{st.IdentityView(), st.SelectView([]int32{0, 1, 2}), st.RepeatView([]int32{5})} {
		if !v.HasMissing() {
			t.Fatal("view over a missing store must report missing")
		}
	}
}

// A synthetic row that interpolates to NaN (possible from infinite base
// values) must disable the merge order so induction falls back to the
// general missing-value builder, exactly like the materialised view.
func TestExtendViewNaNSynthetic(t *testing.T) {
	d := storeTestDataset(10, 17)
	st := NewStore(d, nil)
	v := st.ExtendView([]Synthetic{{Values: []float64{math.NaN(), 0, 1}, Class: 1, Weight: 1}})
	if !v.HasMissing() {
		t.Fatal("NaN synthetic must disable the merge order")
	}
	if !v.Materialize().HasMissing() {
		t.Fatal("materialised fallback dataset must contain the NaN")
	}
}

func TestHasMissingCache(t *testing.T) {
	d := storeTestDataset(10, 19)
	if d.HasMissing() {
		t.Fatal("fresh dataset reported missing")
	}
	// Add maintains the cached answer incrementally.
	vals := make([]float64, 3)
	vals[0] = Missing
	d.MustAdd(Instance{Values: vals, Class: 0, Weight: 1})
	if !d.HasMissing() {
		t.Fatal("Add did not maintain the cache")
	}
	// Subsetting only preserves a missing-free answer.
	clean := storeTestDataset(10, 19)
	_ = clean.HasMissing()
	sub := clean.Subset([]int{0, 1})
	if sub.missing != missingNo {
		t.Fatal("subset of a missing-free dataset should inherit the answer")
	}
	dirtySub := d.Subset([]int{0, 1})
	if dirtySub.missing != missingUnknown {
		t.Fatal("subset of a dataset with missing values must rescan")
	}
	// Direct mutation requires invalidation.
	clean.Instances[0].Values[0] = Missing
	if clean.HasMissing() {
		t.Fatal("stale cache expected before invalidation")
	}
	clean.InvalidateMissing()
	if !clean.HasMissing() {
		t.Fatal("invalidation did not force a rescan")
	}
}

// TestSharedVariantsAliasValues pins which variants share storage:
// IdentityView and SelectView alias the store's column, class and
// weight arrays (O(1) construction), while Subset and Materialize
// deep-copy Values so their results may be mutated freely.
func TestSharedVariantsAliasValues(t *testing.T) {
	d := storeTestDataset(6, 23)
	st := NewStore(d, nil)
	for name, v := range map[string]*View{
		"identity": st.IdentityView(),
		"select":   st.SelectView([]int32{4, 1}),
	} {
		if &v.Cols()[0][0] != &st.Cols()[0][0] {
			t.Fatalf("%s view must alias the store's columns", name)
		}
		if &v.Classes()[0] != &st.Classes()[0] || &v.weights[0] != &st.Weights()[0] {
			t.Fatalf("%s view must alias the store's classes and weights", name)
		}
	}
	md := st.SelectView([]int32{4, 1}).Materialize()
	md.Instances[0].Values[0] = -1
	if st.Cols()[0][4] == -1 || d.Instances[4].Values[0] == -1 {
		t.Fatal("Materialize must deep-copy Values")
	}
	deep := d.Subset([]int{2, 4})
	if &deep.Instances[0].Values[0] == &d.Instances[2].Values[0] {
		t.Fatal("Subset must deep-copy Values")
	}
	deep.Instances[0].Weight = 42
	if d.Instances[2].Weight == 42 {
		t.Fatal("Subset weight mutation leaked into the receiver")
	}
}

// viewSnapshot deep-copies the arrays a view exposes, so they can be
// compared after the view's arena is reused.
type viewSnapshot struct {
	rows    []int32
	cols    [][]float64
	classes []int
	weights []float64
	sorted  [][]int32
}

func snapshotView(v *View) viewSnapshot {
	s := viewSnapshot{
		rows:    slices.Clone(v.Rows()),
		classes: slices.Clone(v.Classes()),
		weights: slices.Clone(v.weights),
	}
	for _, col := range v.Cols() {
		s.cols = append(s.cols, slices.Clone(col))
	}
	if v.Sorted() != nil {
		s.sorted = make([][]int32, len(v.Sorted()))
		for a, idx := range v.Sorted() {
			s.sorted[a] = slices.Clone(idx)
		}
	}
	return s
}

// checkSnapshot requires v to expose exactly the arrays of want; column
// values compare by bits.
func checkSnapshot(t *testing.T, name string, v *View, want viewSnapshot) {
	t.Helper()
	got := snapshotView(v)
	bitsEqual := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if !slices.Equal(got.rows, want.rows) || !slices.Equal(got.classes, want.classes) ||
		!bitsEqual(got.weights, want.weights) {
		t.Fatalf("%s: rows, classes or weights differ from a fresh-arena view", name)
	}
	if !slices.EqualFunc(got.cols, want.cols, bitsEqual) {
		t.Fatalf("%s: columns differ from a fresh-arena view", name)
	}
	if (got.sorted == nil) != (want.sorted == nil) || !slices.EqualFunc(got.sorted, want.sorted, slices.Equal[[]int32]) {
		t.Fatalf("%s: sorted orders differ from a fresh-arena view", name)
	}
}

// TestViewReleaseReuse builds extend and repeat views in the arenas of
// larger, released repeat and extend views: each must expose the same
// arrays as the view built on a fresh arena. The views are built both on the released
// arena itself and through the public constructors, which take theirs
// from the pool. Release is a no-op on identity and select views and
// safe to call twice.
func TestViewReleaseReuse(t *testing.T) {
	// The larger views' schema is all numeric, so a stale order in the
	// smaller views' nominal slot would show.
	bigData := storeTestDataset(300, 21)
	bigData.Attrs = []Attribute{NumericAttr("x"), NumericAttr("mode"), NumericAttr("y")}
	big := NewStore(bigData, nil)
	st := NewStore(storeTestDataset(80, 22), nil)
	var bigExtra, extra []int32
	for i := 0; i < big.n; i += 2 {
		bigExtra = append(bigExtra, int32(i), int32(i))
	}
	for i := 0; i < st.n; i += 5 {
		extra = append(extra, int32(i))
	}
	synFor := func(s *Store, every int) []Synthetic {
		var syn []Synthetic
		for i := 0; i < s.n; i += every {
			vs := []float64{s.Cols()[0][i] + 0.25, s.Cols()[1][i], s.Cols()[2][i] - 0.5}
			syn = append(syn, Synthetic{Values: vs, Class: 1, Weight: float64(i%3) + 0.5})
		}
		return syn
	}
	bigSyn, syn := synFor(big, 1), synFor(st, 3)

	wantExtend := snapshotView(st.extendView(syn, new(viewArena)))
	wantRepeat := snapshotView(st.repeatView(extra, new(viewArena)))

	// Every small view after every larger one, on the released view's
	// own arena.
	bigViews := map[string]func() *View{
		"repeat": func() *View { return big.repeatView(bigExtra, new(viewArena)) },
		"extend": func() *View { return big.extendView(bigSyn, new(viewArena)) },
	}
	for name, build := range bigViews {
		b := build()
		ar := b.arena
		b.Release()
		checkSnapshot(t, "extend after "+name, st.extendView(syn, ar), wantExtend)
		b = build()
		ar = b.arena
		b.Release()
		checkSnapshot(t, "repeat after "+name, st.repeatView(extra, ar), wantRepeat)
	}

	// The same through the pool.
	big.RepeatView(bigExtra).Release()
	v := st.ExtendView(syn)
	checkSnapshot(t, "pooled extend", v, wantExtend)
	v.Release()
	big.ExtendView(bigSyn).Release()
	v = st.RepeatView(extra)
	checkSnapshot(t, "pooled repeat", v, wantRepeat)

	v.Release()
	v.Release()
	if v.Len() != 0 || v.Rows() != nil || v.Sorted() != nil || v.arena != nil {
		t.Fatal("released view is not zeroed")
	}

	id := st.IdentityView()
	sel := st.SelectView([]int32{4, 1, 9})
	wantID, wantSel := snapshotView(id), snapshotView(sel)
	for i := 0; i < 2; i++ {
		id.Release()
		sel.Release()
	}
	checkSnapshot(t, "released identity view", id, wantID)
	checkSnapshot(t, "released select view", sel, wantSel)
}
