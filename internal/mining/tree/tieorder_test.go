package tree

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// sameTreeUpToZeroSign compares two trees node for node, distributions
// included, with thresholds by bits except that -0 and +0 match.
func sameTreeUpToZeroSign(a, b *Node) bool {
	if a.Attr != b.Attr || a.Class != b.Class || len(a.Children) != len(b.Children) {
		return false
	}
	if math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) && !(a.Threshold == 0 && b.Threshold == 0) {
		return false
	}
	if !reflect.DeepEqual(a.Dist, b.Dist) {
		return false
	}
	for i := range a.Children {
		if !sameTreeUpToZeroSign(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// growPermuted grows the unpruned tree of a view from group lists
// rebuilt out of another order the view contract allows: every
// attribute's rows in ascending order with every run of == values
// shuffled (a row's duplicates stay together), then regrouped into
// maximal runs of bit-identical values. Only a run mixing -0 and +0
// regroups differently.
func growPermuted(v *dataset.View, rng *stats.RNG) *Node {
	b := newViewBuilder(v, new(buildScratch))
	root := b.root(v)
	nAttrs := len(v.Attrs())
	root.groups = make([][]dataset.Group, nAttrs)
	b.rowGroup = make([][]int32, nAttrs)
	b.groupVal = make([][]float64, nAttrs)
	times := make(map[int32]int32)
	for _, r := range v.Rows() {
		times[r]++
	}
	nIDs := 0
	for a := range v.Attrs() {
		col := v.Cols()[a]
		var distinct []int32
		seen := make(map[int32]bool)
		for _, r := range groupOrder(v, a) {
			if !seen[r] {
				seen[r] = true
				distinct = append(distinct, r)
			}
		}
		for i := 0; i < len(distinct); {
			e := i + 1
			for e < len(distinct) && col[distinct[e]] == col[distinct[i]] {
				e++
			}
			run := distinct[i:e]
			rng.Shuffle(len(run), func(x, y int) { run[x], run[y] = run[y], run[x] })
			i = e
		}
		rg := make([]int32, len(col))
		var list []dataset.Group
		var vals []float64
		for _, r := range distinct {
			x := col[r]
			k := len(list)
			if k == 0 || math.Float64bits(vals[k-1]) != math.Float64bits(x) {
				g := dataset.Group{ID: int32(k)}
				if k > 0 {
					g.Run = list[k-1].Run
					if vals[k-1] != x {
						g.Run++
					}
				}
				list = append(list, g)
				vals = append(vals, x)
				k++
			}
			g := &list[k-1]
			g.N += times[r]
			g.Ones += times[r] * int32(b.cls[r])
			rg[r] = g.ID
		}
		root.groups[a], b.rowGroup[a], b.groupVal[a] = list, rg, vals
		nIDs = max(nIDs, len(vals))
	}
	b.sc.count = make([]uint64, nIDs)
	return b.build(root, 0)
}

// tieViews builds random unit-weight views from one seed: an identity,
// a repeat and an extend view over a store whose values come from a
// pool of duplicates, both zeros and both infinities. The synthetic
// rows interpolate between random rows with q = 0 half the time, so
// half tie their seed's values (a -0 seed may give +0), and with a
// random q otherwise.
func tieViews(seed uint64) []*dataset.View {
	pool := []float64{math.Inf(-1), -3, -1, math.Copysign(0, -1), 0, 0.5, 1, 2, 4, math.Inf(1)}
	rng := stats.NewRNG(seed)
	attrs := []dataset.Attribute{dataset.NumericAttr("x"), dataset.NumericAttr("y"), dataset.NumericAttr("z")}
	if rng.Intn(2) == 0 {
		attrs = append(attrs, dataset.NumericAttr("m"))
	}
	d := dataset.New("ties", attrs, []string{"c0", "c1"})
	n := 20 + rng.Intn(200)
	for i := 0; i < n; i++ {
		vs := make([]float64, len(attrs))
		for a := range vs {
			vs[a] = pool[rng.Intn(len(pool))]
		}
		if len(attrs) > 3 {
			vs[3] = float64(rng.Intn(3))
		}
		class := 0
		if vs[0] > -1 && vs[1] <= 0 {
			class = 1
		}
		if rng.Intn(5) == 0 {
			class = rng.Intn(2)
		}
		d.MustAdd(dataset.Instance{Values: vs, Class: class, Weight: 1})
	}
	st := dataset.NewStore(d, nil)
	extra := make([]int32, rng.Intn(n))
	for i := range extra {
		extra[i] = int32(rng.Intn(n))
	}
	plan := make([]dataset.Interpolation, rng.Intn(3*n))
	for j := range plan {
		plan[j] = dataset.Interpolation{Seed: int32(rng.Intn(n)), Neighbor: int32(rng.Intn(n))}
		if rng.Intn(2) == 0 {
			plan[j].Q = rng.Float64()
		}
	}
	return []*dataset.View{st.IdentityView(), st.RepeatView(extra), st.InterpolateView(plan)}
}

// TestTreeIgnoresTieOrder is the proof obligation behind the group
// builder and the extend view's tie placement: on unit-weight views,
// the order of rows inside a run of equal values cannot change a tree's
// structure, distributions or verdicts. Group lists rebuilt from a
// shuffle of every run of every attribute's order must grow the same
// tree by bits, except thresholds that differ only in the sign of zero;
// pruning reads only the grown tree, so the pruned trees then agree as
// well.
func TestTreeIgnoresTieOrder(t *testing.T) {
	rng := stats.NewRNG(41)
	signFlips := 0
	for seed := uint64(1); seed <= 150; seed++ {
		for vi, v := range tieViews(seed) {
			want := grow(v, new(buildScratch))
			for p := 0; p < 3; p++ {
				got := growPermuted(v, rng)
				if !sameTreeUpToZeroSign(got, want) {
					t.Fatalf("seed %d view %d: shuffling ties changed the tree", seed, vi)
				}
				if !nodesEqual(got, want) {
					signFlips++
				}
			}
		}
	}
	// The shuffles must reach the one thing they may change.
	if signFlips == 0 {
		t.Fatal("no shuffle moved a threshold between -0 and +0")
	}
}

// zeroThresholds lists the thresholds of a tree's internal nodes in
// preorder, by bits.
func zeroThresholds(n *Node, out []uint64) []uint64 {
	if n.IsLeaf() {
		return out
	}
	out = append(out, math.Float64bits(n.Threshold))
	for _, c := range n.Children {
		out = zeroThresholds(c, out)
	}
	return out
}

// TestSignedZeroThresholds is the regression test of the group lists'
// zero signs: a run of == values holding -0 and +0 rows interleaved is
// several groups, and a node's threshold on it is the value of its last
// group the node keeps. Keying groups on == instead of on bits records
// the run's first sign instead. Views of at most twelve rows sort by
// insertion, stably, in the store and in the general builder alike, so
// every threshold must equal the general builder's on the materialised
// view by bits, sign included.
//
// The crafted case splits on y first; its left child keeps the zero
// rows 1 (+0), 2 (-0) and the synthetic row 9, a -0 tied to its -0
// seed, so that child splits at -0, while the whole run ends with the
// +0 synthetic row 10. The random cases mix both zeros in every
// attribute, with synthetic rows at q = 0, which tie their seed's
// value: a -0 seed's copy is +0 where the neighbour's value is not
// below zero. (A synthetic zero that ties no seed, such as halfway
// between -1 and 1, sorts after the tied ones, where the general
// builder would keep it in row order.)
func TestSignedZeroThresholds(t *testing.T) {
	negZero := math.Copysign(0, -1)
	check := func(name string, st *dataset.Store, plan []dataset.Interpolation) *Node {
		t.Helper()
		v := st.InterpolateView(plan)
		defer v.Release()
		got, err := (Learner{}).FitTreeView(v)
		if err != nil {
			t.Fatal(err)
		}
		want := fitGeneral(v.Materialize())
		if !nodesEqual(got.Root, want) {
			t.Fatalf("%s: thresholds %x, general builder %x", name, zeroThresholds(got.Root, nil), zeroThresholds(want, nil))
		}
		return got.Root
	}

	d := dataset.New("zeros", []dataset.Attribute{dataset.NumericAttr("x"), dataset.NumericAttr("y")}, []string{"neg", "pos"})
	for _, r := range []struct {
		x, y  float64
		class int
	}{{-1, 0, 0}, {0, 0, 0}, {negZero, 0, 0}, {1, 0, 1}, {1, 0, 1}, {0, 5, 1}, {negZero, 5, 1}, {-1, 0, 0}, {0, 5, 1}} {
		d.MustAdd(dataset.Instance{Values: []float64{r.x, r.y}, Class: r.class, Weight: 1})
	}
	st := dataset.NewStore(d, nil)
	root := check("crafted", st, []dataset.Interpolation{
		{Seed: 2, Neighbor: 0, Q: 0},   // (-0, 0) of class 0: -0 + 0·(-1) is -0
		{Seed: 5, Neighbor: 8, Q: 0.5}, // (0, 5) of class 1
	})
	if root.Attr != 1 || root.Children[0].Attr != 0 {
		t.Fatalf("crafted tree splits on %d then %d, want y then x", root.Attr, root.Children[0].Attr)
	}
	if th := root.Children[0].Threshold; th != 0 || !math.Signbit(th) {
		t.Fatalf("crafted child threshold %v (sign %v), want -0", th, math.Signbit(th))
	}

	rng := stats.NewRNG(43)
	pool := []float64{-1, negZero, 0, negZero, 0, 1}
	signs := [2]int{}
	for iter := 0; iter < 3000; iter++ {
		d := dataset.New("zeros", []dataset.Attribute{dataset.NumericAttr("x"), dataset.NumericAttr("y")}, []string{"neg", "pos"})
		n := 4 + rng.Intn(6)
		for i := 0; i < n; i++ {
			x, y := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			class := rng.Intn(2)
			if x == 0 && rng.Intn(3) > 0 {
				class = 0
			}
			d.MustAdd(dataset.Instance{Values: []float64{x, y}, Class: class, Weight: 1})
		}
		plan := make([]dataset.Interpolation, rng.Intn(13-n))
		for j := range plan {
			plan[j] = dataset.Interpolation{Seed: int32(rng.Intn(n)), Neighbor: int32(rng.Intn(n))}
		}
		got := check(fmt.Sprintf("case %d", iter), dataset.NewStore(d, nil), plan)
		for _, th := range zeroThresholds(got, nil) {
			if math.Float64frombits(th) == 0 {
				signs[th>>63]++
			}
		}
	}
	if signs[0] == 0 || signs[1] == 0 {
		t.Fatalf("zero thresholds by sign %v: the cases must reach both", signs)
	}
}
