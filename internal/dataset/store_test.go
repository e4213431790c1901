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
		NumericAttr("mode"),
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
		d.MustAdd(Instance{Values: []float64{x, mode, y}, Class: class})
	}
	return d
}

// oracleGroup is one group of a view's attribute as sortedGroups
// recomputes it: its value and the instances (indices into the
// materialised view) it holds.
type oracleGroup struct {
	value   float64
	members []int
}

// sortedGroups recomputes attribute a's group list of a view of st by
// sorting the view's materialised instances, whose row ids are rows:
// ascending by value with -0 and +0 equal, and within a run of ==
// values the base instances first, in the order sort.Slice leaves the
// store's rows (a duplicate right after its base row), then the
// synthetic instances whose value equals their seed's, then the other
// synthetic ones, each in instance order. It cuts that order into
// maximal runs of bit-identical values. plan is the extend view's
// synthetic rows (nil for the other views). It knows nothing of
// stretches: checkViewGroups expands them.
func sortedGroups(st *Store, md *Dataset, rows []int32, plan []Interpolation, a int) []oracleGroup {
	col := st.Cols()[a]
	storeOrder := make([]int32, st.n)
	for i := range storeOrder {
		storeOrder[i] = int32(i)
	}
	sort.Slice(storeOrder, func(i, j int) bool { return col[storeOrder[i]] < col[storeOrder[j]] })
	storePos := make([]int, st.n)
	for p, r := range storeOrder {
		storePos[r] = p
	}
	type rank struct{ tier, pos int }
	ranks := make([]rank, md.Len())
	for i, r := range rows {
		switch j := int(r) - st.n; {
		case j < 0:
			ranks[i] = rank{0, storePos[r]}
		case md.Instances[i].Values[a] == col[plan[j].Seed]:
			ranks[i] = rank{1, j}
		default:
			ranks[i] = rank{2, j}
		}
	}
	value := func(i int) float64 { return md.Instances[i].Values[a] }
	order := make([]int, md.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		if ki, kj := orderKey(value(i)), orderKey(value(j)); ki != kj {
			return ki < kj
		}
		if ranks[i].tier != ranks[j].tier {
			return ranks[i].tier < ranks[j].tier
		}
		return ranks[i].pos < ranks[j].pos
	})
	var groups []oracleGroup
	for _, i := range order {
		x := value(i)
		if k := len(groups); k == 0 || math.Float64bits(groups[k-1].value) != math.Float64bits(x) {
			groups = append(groups, oracleGroup{value: x})
		}
		g := &groups[len(groups)-1]
		g.members = append(g.members, i)
	}
	return groups
}

// checkViewGroups holds every attribute's group list and row group IDs
// of a view of st to sortedGroups. A view's list may hold adjacent
// groups of identical bits, where a subset dropped the other zero from
// between two store groups, so its maximal runs of such groups are
// compared with the recomputed groups, in order: the same values (by
// bits), row and class-1 counts, and every instance's row in one of the
// run's groups, each group holding as many instances of each class as
// it counts. Adjacent groups share a run exactly when their values are
// ==, and the IDs are distinct.
//
// A stretch (negative Run, unique in the list) is expanded by sorting
// the instances that map to it: at least two, all of class 1, N and
// Ones counting them, pairwise distinct under ==, and strictly above
// the entry before it and below the entry after it, so that no other
// entry holds a value == any of them. Each then is a recomputed group
// of that one instance, in order.
func checkViewGroups(t *testing.T, st *Store, v *View, plan []Interpolation) {
	t.Helper()
	md := v.Materialize()
	checkInterpolated(t, st, md, plan)
	for a := range v.Attrs() {
		want := sortedGroups(st, md, v.Rows(), plan, a)
		list, vals, rg := v.Groups()[a], v.GroupValues()[a], v.RowGroups()[a]
		value := func(i int) float64 { return md.Instances[i].Values[a] }
		members := make(map[int32][]int) // group ID -> instances, a stretch's ascending
		for i, r := range v.Rows() {
			members[rg[r]] = append(members[rg[r]], i)
		}
		ids := make(map[int32]int)       // group ID -> position in list
		runs := make(map[int32]bool)     // the stretches' runs
		lo := make([]float64, len(list)) // per position: least value
		hi := make([]float64, len(list)) // and greatest
		for k, g := range list {
			if _, dup := ids[g.ID]; dup {
				t.Fatalf("attr %d: group ID %d repeats", a, g.ID)
			}
			ids[g.ID] = k
			if g.N < 1 {
				t.Fatalf("attr %d group %d: empty", a, k)
			}
			lo[k], hi[k] = vals[g.ID], vals[g.ID]
			if g.Run < 0 {
				m := members[g.ID]
				sort.Slice(m, func(x, y int) bool { return value(m[x]) < value(m[y]) })
				if runs[g.Run] || g.N < 2 || g.Ones != g.N || int(g.N) != len(m) {
					t.Fatalf("attr %d group %d: stretch %+v holds %d instances (run repeats: %v)", a, k, g, len(m), runs[g.Run])
				}
				runs[g.Run] = true
				for j, i := range m {
					if md.Instances[i].Class != 1 || (j > 0 && !(value(m[j-1]) < value(i))) {
						t.Fatalf("attr %d stretch %d: instance %d (%v, class %d) after %v", a, k, i, value(i), md.Instances[i].Class, value(m[max(j-1, 0)]))
					}
				}
				lo[k], hi[k] = value(m[0]), value(m[len(m)-1])
			}
			if k == 0 {
				continue
			}
			if prev := list[k-1]; prev.Run < 0 || g.Run < 0 {
				if !(hi[k-1] < lo[k]) || prev.Run == g.Run {
					t.Fatalf("attr %d group %d: %+v from %v after %+v up to %v", a, k, g, lo[k], prev, hi[k-1])
				}
			} else if (prev.Run == g.Run) != (vals[prev.ID] == vals[g.ID]) {
				t.Fatalf("attr %d group %d: run %d after run %d, values %v after %v", a, k, g.Run, prev.Run, vals[g.ID], vals[prev.ID])
			}
		}
		bits := func(k int) uint64 { return math.Float64bits(vals[list[k].ID]) }
		k := 0
		for w := 0; w < len(want); {
			if k < len(list) && list[k].Run < 0 {
				for _, i := range members[list[k].ID] {
					if w == len(want) || math.Float64bits(want[w].value) != math.Float64bits(value(i)) || !slices.Equal(want[w].members, []int{i}) {
						t.Fatalf("attr %d: stretch member %d (%v) is not recomputed group %d alone", a, i, value(i), w)
					}
					w++
				}
				k++
				continue
			}
			wg := want[w]
			if k == len(list) || bits(k) != math.Float64bits(wg.value) {
				t.Fatalf("attr %d: recomputed group %d (%v) is not next in the list", a, w, wg.value)
			}
			first := k
			for k++; k < len(list) && list[k].Run >= 0 && bits(k) == bits(first); k++ {
			}
			counts := make(map[int][2]int32) // list position -> rows, class-1 rows
			for _, i := range wg.members {
				p, ok := ids[rg[v.Rows()[i]]]
				if !ok || p < first || p >= k {
					t.Fatalf("attr %d: instance %d (row %d) maps to group ID %d, outside recomputed group %d (%v)", a, i, v.Rows()[i], rg[v.Rows()[i]], w, wg.value)
				}
				c := counts[p]
				c[0]++
				c[1] += one(md.Instances[i].Class)
				counts[p] = c
			}
			for p := first; p < k; p++ {
				if c := counts[p]; c[0] != list[p].N || c[1] != list[p].Ones {
					t.Fatalf("attr %d group %d (%v): %d rows, %d of class 1; its instances are %d and %d", a, p, wg.value, list[p].N, list[p].Ones, c[0], c[1])
				}
			}
			w++
		}
		if k != len(list) {
			t.Fatalf("attr %d: %d groups beyond the recomputed ones", a, len(list)-k)
		}
	}
}

// stretches counts a view's stretch entries over every attribute.
func stretches(v *View) int {
	n := 0
	for _, list := range v.Groups() {
		for _, g := range list {
			if g.Run < 0 {
				n++
			}
		}
	}
	return n
}

// checkInterpolated requires the materialised extend view md of st to
// end with one row per plan entry: its seed's class and, per
// attribute, seed + q·(neighbour − seed), or the seed's value where
// that is NaN.
func checkInterpolated(t *testing.T, st *Store, md *Dataset, plan []Interpolation) {
	t.Helper()
	for j, p := range plan {
		got := md.Instances[st.n+j]
		if got.Class != st.classes[p.Seed] {
			t.Fatalf("synthetic %d: class %d, its seed's is %d", j, got.Class, st.classes[p.Seed])
		}
		for a, col := range st.cols {
			sv, nv := col[p.Seed], col[p.Neighbor]
			want := sv + p.Q*(nv-sv)
			if math.IsNaN(want) {
				want = sv
			}
			if math.Float64bits(got.Values[a]) != math.Float64bits(want) {
				t.Fatalf("synthetic %d attr %d: %v, want %v", j, a, got.Values[a], want)
			}
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
		if a.Class != b.Class || b.Weight != 1 {
			t.Fatalf("row %d: class/weight mismatch", i)
		}
		for j := range a.Values {
			if a.Values[j] != b.Values[j] {
				t.Fatalf("row %d attr %d: %v != %v", i, j, a.Values[j], b.Values[j])
			}
		}
	}
	checkViewGroups(t, st, st.IdentityView(), nil)
}

func TestStoreSortMatchesSortSlice(t *testing.T) {
	// The store's groups must be the bit-identical runs of sort.Slice's
	// permutation on the same comparator and input sequence — ties, and
	// -0 and +0 interleaved in one run, included.
	d := storeTestDataset(100, 9)
	// Force ties.
	for i := 0; i < 100; i += 3 {
		d.Instances[i].Values[0] = 5
	}
	for i := 1; i < 100; i += 4 {
		d.Instances[i].Values[2] = math.Copysign(0, float64(i%8)-2)
	}
	st := NewStore(d, nil)
	checkViewGroups(t, st, st.IdentityView(), nil)
	if n := len(st.groups[2]); n < 3 || st.groups[2][0].Run != st.groups[2][1].Run {
		t.Fatalf("attr 2: %d groups; the zeros must split into groups of one run", n)
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
	checkViewGroups(t, st, v, nil)
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
	checkViewGroups(t, st, v, nil)
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
	plan := []Interpolation{
		{Seed: 3, Neighbor: 7, Q: 0.25},
		{Seed: 12, Neighbor: 12, Q: 0.5},
		{Seed: 29, Neighbor: 0, Q: 0},
	}
	v := st.InterpolateView(plan)
	if v.Len() != 33 || v.Appended() != 3 {
		t.Fatalf("len %d appended %d", v.Len(), v.Appended())
	}
	checkViewGroups(t, st, v, plan)
}

// Base rows must win ties against synthetic rows in the merged order,
// as they precede synthetics in the materialised view's instance order:
// a synthetic of a base value joins the end of that value's group.
func TestExtendViewTieOrder(t *testing.T) {
	d := New("ties", []Attribute{NumericAttr("x")}, []string{"n", "p"})
	for i, x := range []float64{1, 2, 2, 3} {
		d.MustAdd(Instance{Values: []float64{x}, Class: i % 2})
	}
	st := NewStore(d, nil)
	plan := []Interpolation{{Seed: 1, Neighbor: 3, Q: 0}}
	v := st.InterpolateView(plan)
	checkViewGroups(t, st, v, plan)
	want := []Group{{ID: 0, Run: 0, N: 1}, {ID: 1, Run: 1, N: 3, Ones: 2}, {ID: 2, Run: 2, N: 1, Ones: 1}}
	if got := v.Groups()[0]; !slices.Equal(got, want) || v.RowGroups()[0][4] != 1 {
		t.Fatalf("groups %v, synthetic in group %d; want %v and 1", got, v.RowGroups()[0][4], want)
	}
}

// extendPool is the value pool of the extend-view checks: duplicates,
// both zeros, both infinities, and both of the clamps propane.ToDataset
// substitutes for non-finite values.
var extendPool = []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, 2, math.Inf(1), 1e308, -1e308}

// qPool holds the interpolation factors of the extend-view checks: q = 0
// ties every synthetic value with its seed's (or, from a -0 seed, gives
// +0), and the rest land between the two rows.
var qPool = []float64{0, 0.5, 0.25, 0.9375}

// TestExtendViewMatchesSortSliceOrder holds the merged group lists to
// the ones sorting recomputes (checkViewGroups) on random base values
// with ties, ±0 and ±Inf, interpolated between random seeds and
// neighbours, so synthetic values tie their seed's and do not. Only
// the order of groups within a run of == values can change a tree, by
// which of -0 and +0 a threshold prints, and base rows first keeps that
// as it was.
func TestExtendViewMatchesSortSliceOrder(t *testing.T) {
	rng := stats.NewRNG(27)
	value := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.Float64()
		}
		return extendPool[rng.Intn(len(extendPool))]
	}
	seen := 0
	for iter := 0; iter < 300; iter++ {
		d := New("ties", []Attribute{NumericAttr("x"), NumericAttr("y")}, []string{"n", "p"})
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			d.MustAdd(Instance{Values: []float64{value(), value()}, Class: rng.Intn(2)})
		}
		plan := make([]Interpolation, 1+rng.Intn(400))
		for j := range plan {
			q := qPool[rng.Intn(len(qPool))]
			if rng.Intn(4) == 0 {
				q = rng.Float64()
			}
			plan[j] = Interpolation{Seed: int32(rng.Intn(n)), Neighbor: int32(rng.Intn(n)), Q: q}
		}
		st := NewStore(d, nil)
		v := st.InterpolateView(plan)
		checkViewGroups(t, st, v, plan)
		seen += stretches(v)
	}
	if seen == 0 {
		t.Fatal("no view held a stretch")
	}
}

// TestExtendViewStretches pins which untied synthetic values
// InterpolateView gathers into stretches: between two store values, a
// run of two or more distinct class-1 values, a lone zero between a
// negative and a positive value among them. A value == a store value
// joins that value's run, duplicates share a group, and a class-0
// synthetic or a lone value gets a group of its own, as before.
func TestExtendViewStretches(t *testing.T) {
	d := New("stretch", []Attribute{NumericAttr("x"), NumericAttr("y")}, []string{"n", "p"})
	for _, r := range []struct {
		x, y  float64
		class int
	}{{-1, -1e308, 1}, {1, 1e308, 1}, {2, 1e308, 1}, {10, -1e308, 1}, {4, 0, 0}, {12, 1, 0}} {
		d.MustAdd(Instance{Values: []float64{r.x, r.y}, Class: r.class})
	}
	plan := []Interpolation{
		{Seed: 0, Neighbor: 1, Q: 0.5},    // x 0, y +Inf
		{Seed: 0, Neighbor: 1, Q: 0.25},   // x -0.5
		{Seed: 2, Neighbor: 3, Q: 0.25},   // x 4, == row 4's, y -Inf
		{Seed: 2, Neighbor: 3, Q: 0.5},    // x 6
		{Seed: 3, Neighbor: 2, Q: 0.5},    // x 6 again
		{Seed: 2, Neighbor: 3, Q: 0.125},  // x 3
		{Seed: 2, Neighbor: 3, Q: 0.0625}, // x 2.5
		{Seed: 4, Neighbor: 5, Q: 0.375},  // x 7, class 0
		{Seed: 2, Neighbor: 3, Q: 0.75},   // x 8
		{Seed: 2, Neighbor: 3, Q: 0.875},  // x 9
		{Seed: 3, Neighbor: 5, Q: 0.5},    // x 11, alone between 10 and 12
	}
	st := NewStore(d, nil)
	v := st.InterpolateView(plan)
	defer v.Release()
	checkViewGroups(t, st, v, plan)
	list, rg := v.Groups()[0], v.RowGroups()[0]
	at := func(j int) Group { // the x entry of synthetic j
		id := rg[st.n+j]
		for _, g := range list {
			if g.ID == id {
				return g
			}
		}
		t.Fatalf("synthetic %d: group ID %d not listed", j, id)
		return Group{}
	}
	for _, c := range []struct {
		j, with int  // synthetic j, and one it shares an entry with (-1: none)
		stretch bool // the entry is a stretch
	}{
		{0, 1, true}, {5, 6, true}, {8, 9, true},
		{2, -1, false}, {3, 4, false}, {7, -1, false}, {10, -1, false},
	} {
		g := at(c.j)
		if (g.Run < 0) != c.stretch || (c.with >= 0 && at(c.with) != g) || (c.with < 0 && c.j != 2 && g.N != 1) {
			t.Errorf("synthetic %d: entry %+v; want a stretch: %v, shared with %d", c.j, g, c.stretch, c.with)
		}
	}
	if g := at(2); g.ID != st.rowGroup[0][4] {
		t.Errorf("synthetic 2 (x 4) in entry %+v, not in row 4's group %d", g, st.rowGroup[0][4])
	}
	if n := stretches(v); n != 3 {
		t.Errorf("%d stretches, want 3", n)
	}
}

// FuzzExtendView holds InterpolateView's group lists to the ones
// sorting recomputes on arbitrary inputs. data[0] sets the base row
// count; each of the next n bytes is one base row's value (from
// extendPool, or a fresh value from the byte) and class, and each
// further byte pair one synthetic row: its seed, and its neighbour and
// interpolation factor.
func FuzzExtendView(f *testing.F) {
	f.Add([]byte{3, 0, 0, 3, 0, 7, 0, 2, 0x81, 3, 0x82, 5, 0x80})
	f.Add([]byte{5, 2, 0, 3, 0, 2, 0, 3, 0, 9, 0, 2, 0x83, 3, 0x84, 2, 0x01, 3, 0x02})
	f.Add([]byte{1, 7, 0, 0, 0x80, 7, 0x80, 1, 0x00, 200, 0x80})
	// One column holding both ±1e308 clamps, with synthetics tied to
	// each and interpolated across them to +Inf.
	f.Add([]byte{3, 8, 9, 3, 5, 0x01, 0x01, 0x40, 0x02, 0x81, 0x00, 0x01, 0x40})
	// Many distinct class-1 synthetics (stretches in three gaps), some
	// of them duplicates and one == a base value.
	f.Add([]byte{3, 0x81, 0xFF, 0xC0, 0x91, 0, 0x41, 0, 0x81, 0, 0xC1, 1, 0x80, 1, 0xC0, 1, 0x40, 3, 0x81, 3, 0xC1, 3, 0x41, 0, 0x43, 0, 0x83})
	// A lone synthetic zero between -1 and 1, then one inside a stretch.
	f.Add([]byte{1, 1, 5, 0, 0x41})
	f.Add([]byte{1, 1, 5, 0, 0x41, 0, 0x81, 1, 0xC0})
	// Class-1 synthetics interpolated across the ±1e308 clamps to ±Inf.
	f.Add([]byte{2, 9, 8, 19, 0, 0x41, 0, 0x81, 2, 0xC1, 1, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
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
		if len(rows) < n+2 {
			return
		}
		d := New("fuzz", []Attribute{NumericAttr("x")}, []string{"n", "p"})
		for i := 0; i < n; i++ {
			d.MustAdd(Instance{Values: []float64{value(rows[i])}, Class: int(rows[i] & 1)})
		}
		var plan []Interpolation
		for i := n; i+1 < len(rows); i += 2 {
			plan = append(plan, Interpolation{
				Seed:     int32(int(rows[i]) % n),
				Neighbor: int32(int(rows[i+1]&0x3f) % n),
				Q:        qPool[rows[i+1]>>6],
			})
		}
		st := NewStore(d, nil)
		v := st.InterpolateView(plan)
		checkViewGroups(t, st, v, plan)
		v.Release()
	})
}

// FuzzViewGroups holds every view shape to the group lists and row
// group IDs that sorting its materialised rows recomputes
// (checkViewGroups): identity, select, repeat (with duplicates) and
// extend views of one two-attribute store whose values come from
// extendPool (duplicates, ±0, ±Inf and both ±1e308 clamps) or from the
// byte. data[0] sets the base row count n; each of the next n byte
// triples is one base row: two values and a class. Every further byte
// triple drives all three sampled shapes at once: its first byte's low
// bits pick a row to keep (select), to duplicate (repeat) and to seed
// one synthetic row (extend), which its second byte's row is the
// neighbour of and its third byte's bits pick the factor for.
func FuzzViewGroups(f *testing.F) {
	f.Add([]byte{4, 3, 2, 0, 2, 3, 1, 3, 3, 0, 2, 2, 1, 0x81, 3, 0x03, 2, 9, 0x01, 3, 2, 0x02})
	f.Add([]byte{6, 8, 9, 1, 9, 8, 0, 8, 8, 1, 9, 9, 0, 3, 2, 1, 2, 3, 0, 0x85, 7, 0x03, 0x04, 0, 0x00, 1, 3, 0x01, 0x82, 8, 0x02})
	f.Add([]byte{3, 0, 7, 0, 7, 0, 1, 200, 130, 1, 0, 2, 0x03, 1, 3, 0x00})
	// Many distinct class-1 synthetics, duplicates and one == a base
	// value; then a synthetic zero between -1 and 1 beside ±Inf from
	// the ±1e308 clamps.
	f.Add([]byte{3, 0x81, 0x90, 1, 0xFF, 0xA0, 1, 0xC0, 0x85, 0, 0x91, 0xF0, 1,
		0, 1, 1, 0, 1, 2, 0, 1, 3, 1, 0, 2, 1, 0, 3, 1, 0, 1, 3, 1, 2, 3, 1, 3, 3, 1, 1, 0, 3, 1, 0, 3, 2})
	f.Add([]byte{1, 1, 9, 1, 5, 8, 1, 0, 1, 1, 0, 1, 2, 1, 0, 3})
	f.Fuzz(checkViewShapes)
}

// checkViewShapes is FuzzViewGroups' body.
func checkViewShapes(t *testing.T, data []byte) {
	if len(data) < 4 {
		return
	}
	value := func(b byte) float64 {
		if b >= 128 {
			return float64(b-128) / 16
		}
		return extendPool[int(b)%len(extendPool)]
	}
	n := 1 + int(data[0])%48
	rows := data[1:]
	if len(rows) < 3*n {
		return
	}
	d := New("fuzz", []Attribute{NumericAttr("x"), NumericAttr("y")}, []string{"n", "p"})
	for i := 0; i < n; i++ {
		b := rows[3*i:]
		d.MustAdd(Instance{Values: []float64{value(b[0]), value(b[1])}, Class: int(b[2] % 2)})
	}
	st := NewStore(d, nil)
	keep := make([]bool, n)
	var sel, extra []int32
	var plan []Interpolation
	for i := 3 * n; i+2 < len(rows); i += 3 {
		b := rows[i : i+3]
		r := int(b[0]&0x7f) % n
		if !keep[r] {
			keep[r] = true
			sel = append(sel, int32(r))
		}
		extra = append(extra, int32(r))
		plan = append(plan, Interpolation{Seed: int32(r), Neighbor: int32(int(b[1]) % n), Q: qPool[b[2]%4]})
	}
	checkViewGroups(t, st, st.IdentityView(), nil)
	checkViewGroups(t, st, st.SelectView(sel), nil)
	rep := st.RepeatView(extra)
	checkViewGroups(t, st, rep, nil)
	rep.Release()
	ext := st.InterpolateView(plan)
	checkViewGroups(t, st, ext, plan)
	ext.Release()
}

// TestSharedVariantsAliasValues pins which variants share storage:
// IdentityView and SelectView alias the store's column and class
// arrays (O(1) construction), while Subset and Materialize deep-copy
// Values so their results may be mutated freely.
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
		if &v.Classes()[0] != &st.Classes()[0] {
			t.Fatalf("%s view must alias the store's classes", name)
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
	rows      []int32
	cols      [][]float64
	classes   []int
	groups    [][]Group
	rowGroups [][]int32
	groupVals [][]float64
}

func snapshotView(v *View) viewSnapshot {
	return viewSnapshot{
		rows:      slices.Clone(v.Rows()),
		classes:   slices.Clone(v.Classes()),
		cols:      cloneEach(v.Cols()),
		groups:    cloneEach(v.Groups()),
		rowGroups: cloneEach(v.RowGroups()),
		groupVals: cloneEach(v.GroupValues()),
	}
}

// cloneEach deep-copies a slice of slices.
func cloneEach[T any](xs [][]T) [][]T {
	out := make([][]T, len(xs))
	for i, x := range xs {
		out[i] = slices.Clone(x)
	}
	return out
}

// checkSnapshot requires v to expose exactly the arrays of want; values
// compare by bits. Only the row group IDs of the view's rows count.
func checkSnapshot(t *testing.T, name string, v *View, want viewSnapshot) {
	t.Helper()
	got := snapshotView(v)
	bitsEqual := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if !slices.Equal(got.rows, want.rows) || !slices.Equal(got.classes, want.classes) {
		t.Fatalf("%s: rows or classes differ from a fresh-arena view", name)
	}
	if !slices.EqualFunc(got.cols, want.cols, bitsEqual) || !slices.EqualFunc(got.groupVals, want.groupVals, bitsEqual) {
		t.Fatalf("%s: columns or group values differ from a fresh-arena view", name)
	}
	if !slices.EqualFunc(got.groups, want.groups, slices.Equal[[]Group]) {
		t.Fatalf("%s: group lists differ from a fresh-arena view", name)
	}
	for a := range got.rowGroups {
		for _, r := range got.rows {
			if got.rowGroups[a][r] != want.rowGroups[a][r] {
				t.Fatalf("%s: attr %d row %d group ID differs from a fresh-arena view", name, a, r)
			}
		}
	}
}

// TestViewReleaseReuse builds extend and repeat views in the arenas of
// larger, released repeat and extend views: each must expose the same
// arrays as the view built on a fresh arena. The views are built both on the released
// arena itself and through the public constructors, which take theirs
// from the pool. Release is a no-op on identity and select views and
// safe to call twice.
func TestViewReleaseReuse(t *testing.T) {
	big := NewStore(storeTestDataset(300, 21), nil)
	st := NewStore(storeTestDataset(80, 22), nil)
	var bigExtra, extra []int32
	for i := 0; i < big.n; i += 2 {
		bigExtra = append(bigExtra, int32(i), int32(i))
	}
	for i := 0; i < st.n; i += 5 {
		extra = append(extra, int32(i))
	}
	synFor := func(s *Store, every int) []Interpolation {
		var plan []Interpolation
		for i := 0; i < s.n; i += every {
			plan = append(plan, Interpolation{Seed: int32(i), Neighbor: int32((i + 7) % s.n), Q: 0.25})
		}
		return plan
	}
	bigSyn, syn := synFor(big, 1), synFor(st, 3)

	wantExtend := snapshotView(st.interpolateView(syn, new(viewArena)))
	wantRepeat := snapshotView(st.repeatView(extra, new(viewArena)))

	// Every small view after every larger one, on the released view's
	// own arena.
	bigViews := map[string]func() *View{
		"repeat": func() *View { return big.repeatView(bigExtra, new(viewArena)) },
		"extend": func() *View { return big.interpolateView(bigSyn, new(viewArena)) },
	}
	for name, build := range bigViews {
		b := build()
		ar := b.arena
		b.Release()
		checkSnapshot(t, "extend after "+name, st.interpolateView(syn, ar), wantExtend)
		b = build()
		ar = b.arena
		b.Release()
		checkSnapshot(t, "repeat after "+name, st.repeatView(extra, ar), wantRepeat)
	}

	// The same through the pool.
	big.RepeatView(bigExtra).Release()
	v := st.InterpolateView(syn)
	checkSnapshot(t, "pooled extend", v, wantExtend)
	v.Release()
	big.InterpolateView(bigSyn).Release()
	v = st.RepeatView(extra)
	checkSnapshot(t, "pooled repeat", v, wantRepeat)

	v.Release()
	v.Release()
	if v.Len() != 0 || v.Rows() != nil || v.Groups() != nil || v.arena != nil {
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
