package tree

import (
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

// growPermuted grows the unpruned tree of a view whose every order has
// been shuffled inside each run of equal values: another order the
// view contract allows.
func growPermuted(v *dataset.View, rng *stats.RNG) *Node {
	fb := newViewBuilder(v, new(buildScratch))
	root := fb.root(v)
	sorted := make([][]int32, len(v.Sorted()))
	for a, ord := range v.Sorted() {
		ord = append([]int32(nil), ord...)
		col := v.Cols()[a]
		for i := 0; i < len(ord); {
			e := i + 1
			for e < len(ord) && col[ord[e]] == col[ord[i]] {
				e++
			}
			group := ord[i:e]
			rng.Shuffle(len(group), func(x, y int) { group[x], group[y] = group[y], group[x] })
			i = e
		}
		sorted[a] = ord
	}
	root.sorted = sorted
	return fb.build(root, 0)
}

// tieViews builds random unit-weight views from one seed: an identity,
// a repeat and an extend view over a store whose values come from a
// pool of duplicates, both zeros and both infinities. Half the
// synthetic values copy their seed row's, the others are pool values or
// +0 (an interpolated zero).
func tieViews(seed uint64) []*dataset.View {
	pool := []float64{math.Inf(-1), -3, -1, math.Copysign(0, -1), 0, 0.5, 1, 2, 4, math.Inf(1)}
	rng := stats.NewRNG(seed)
	nClasses := 2 + rng.Intn(2)
	attrs := []dataset.Attribute{dataset.NumericAttr("x"), dataset.NumericAttr("y"), dataset.NumericAttr("z")}
	if rng.Intn(2) == 0 {
		attrs = append(attrs, dataset.NumericAttr("m"))
	}
	d := dataset.New("ties", attrs, []string{"c0", "c1", "c2"}[:nClasses])
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
			class = rng.Intn(nClasses)
		}
		d.MustAdd(dataset.Instance{Values: vs, Class: class, Weight: 1})
	}
	st := dataset.NewStore(d, nil)
	extra := make([]int32, rng.Intn(n))
	for i := range extra {
		extra[i] = int32(rng.Intn(n))
	}
	syn := make([]dataset.Synthetic, rng.Intn(3*n))
	for j := range syn {
		s := rng.Intn(n)
		vs := append([]float64(nil), d.Instances[s].Values...)
		for a := 0; a < 3; a++ {
			switch rng.Intn(4) {
			case 0:
				vs[a] = pool[rng.Intn(len(pool))]
			case 1:
				vs[a] = 0
			}
		}
		syn[j] = dataset.Synthetic{Values: vs, Class: d.Instances[s].Class, Seed: s}
	}
	return []*dataset.View{st.IdentityView(), st.RepeatView(extra), st.ExtendView(syn)}
}

// TestTreeIgnoresTieOrder is the proof obligation behind the counting
// builder and the extend view's tie placement: on unit-weight views,
// the order of rows inside a run of equal values cannot change a tree's
// structure, distributions or verdicts. Shuffling every run of every
// attribute's order must grow the same tree by bits, except thresholds
// that differ only in the sign of zero; pruning reads only the grown
// tree, so the pruned trees then agree as well.
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
