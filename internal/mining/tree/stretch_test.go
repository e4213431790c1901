package tree

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining/sampling"
	"edem/internal/stats"
)

// cutKind names where a grown tree's cut lies in the split attribute's
// list of the view it was grown from.
type cutKind int

const (
	cutPlain         cutKind = iota // after an entry that is no stretch
	cutStretchEnd                   // right after a stretch's last row in the node
	cutFirstFeasible                // inside a stretch, minLeaf rows left
	cutLastFeasible                 // inside a stretch, minLeaf rows right
	cutUngated                      // inside a stretch, away from both minLeaf gates
	cutAdjacent                     // between two stretches the root's list keeps apart
	cutNodeMax                      // a stretch end below the stretch's largest value in the view
	nCutKinds
)

// classifyCuts walks a tree grown from v alongside each node's rows and
// counts its cuts by kind into seen. A cut between two stretches that
// the root's list keeps apart, or one below a value of the stretch that
// the node lacks, also counts as a stretch end.
func classifyCuts(v *dataset.View, n *Node, rows []int32, seen *[nCutKinds]int) {
	if n.IsLeaf() {
		return
	}
	a, thr := n.Attr, n.Threshold
	col, rg, list := v.Cols()[a], v.RowGroups()[a], v.Groups()[a]
	pos := make(map[int32]int, len(list))
	for k, g := range list {
		pos[g.ID] = k
	}
	var left, right []int32
	last, next := int32(-1), int32(-1) // the rows either side of the cut
	for _, r := range rows {
		if col[r] <= thr {
			left = append(left, r)
			if last < 0 || col[r] > col[last] {
				last = r
			}
		} else {
			right = append(right, r)
			if next < 0 || col[r] < col[next] {
				next = r
			}
		}
	}
	g := list[pos[rg[last]]]
	switch {
	case g.Run >= 0:
		seen[cutPlain]++
	case rg[next] == g.ID:
		switch {
		case len(left) == minLeaf:
			seen[cutFirstFeasible]++
		case len(right) == minLeaf:
			seen[cutLastFeasible]++
		default:
			seen[cutUngated]++
		}
	default:
		seen[cutStretchEnd]++
		if k, k2 := pos[g.ID], pos[rg[next]]; list[k2].Run < 0 && k2 > k+1 {
			seen[cutAdjacent]++
		}
		for _, r := range v.Rows() {
			if rg[r] == g.ID && col[r] > thr {
				seen[cutNodeMax]++
				break
			}
		}
	}
	classifyCuts(v, n.Children[0], left, seen)
	classifyCuts(v, n.Children[1], right, seen)
}

// growChecked grows the tree of nd as build does, and holds every
// child's lists that partition builds to countList over the child's
// rows: the same entries in the same order, a stretch the cut went
// through counted on both sides.
func (b *groupBuilder) growChecked(t *testing.T, name string, v *dataset.View, nd *groupNode, depth int) {
	t.Helper()
	if certainLeaf(nd.n, nd.dist) {
		return
	}
	best := b.bestSplit(nd, b.sc.rows[nd.lo:nd.lo+nd.n])
	if best == nil {
		return
	}
	children, small := b.partition(nd, best, depth)
	if children == nil {
		return
	}
	for k, c := range children {
		if c.groups == nil {
			continue
		}
		rows := b.sc.rows[c.lo : c.lo+c.n]
		for a, list := range c.groups {
			if want := b.countList(v.Groups()[a], a, rows); !slices.Equal(list, want) {
				t.Fatalf("%s: depth %d child %d attr %d: list %v, its rows count %v", name, depth, k, a, list, want)
			}
		}
	}
	for _, i := range [2]int{small, 1 - small} {
		b.growChecked(t, name, v, &children[i], depth+1)
	}
}

// stretchCase is a view whose tree cuts on a stretch where minLeaf
// leaves the best feasible cut: the node at path (child indices from
// the root) splits at threshold thr.
type stretchCase struct {
	v    *dataset.View
	path []int
	thr  float64
}

// stretchCutCases are views whose trees cut on a stretch at the first
// and at the last feasible cut: one class-0 row at one end of x, a
// stretch of SMOTE values next to it, and a heavy class-1 group beyond,
// so that minLeaf keeps the best cut, beside the class-0 row, one row
// into the stretch; with three class-0 rows in the heavy group, the
// child on the heavy side is mixed and takes part of the stretch into
// its lists. In the last, the root splits on y and leaves its
// left child one row of a stretch, whose other rows went right with
// the store group that kept it apart from the next stretch; there the
// first feasible cut lies between the two stretches, below the first
// one's largest value.
func stretchCutCases() map[string]stretchCase {
	edge := func(lone, heavy float64, zeros int) *dataset.View {
		d := dataset.New("edge", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"neg", "pos"})
		d.MustAdd(dataset.Instance{Values: []float64{lone}, Class: 0, Weight: 1})
		for i := 0; i < 96; i++ {
			d.MustAdd(dataset.Instance{Values: []float64{heavy}, Class: 1, Weight: 1})
		}
		for i := 0; i < zeros; i++ {
			d.MustAdd(dataset.Instance{Values: []float64{heavy}, Class: 0, Weight: 1})
		}
		plan := []dataset.Interpolation{{Seed: 1, Neighbor: 0, Q: 0.25}, {Seed: 2, Neighbor: 0, Q: 0.5}, {Seed: 3, Neighbor: 0, Q: 0.75}}
		return dataset.NewStore(d, nil).InterpolateView(plan)
	}
	d := dataset.New("adjacent", []dataset.Attribute{dataset.NumericAttr("x"), dataset.NumericAttr("y")}, []string{"neg", "pos"})
	add := func(k int, x, y float64, class int) {
		for ; k > 0; k-- {
			d.MustAdd(dataset.Instance{Values: []float64{x, y}, Class: class, Weight: 1})
		}
	}
	add(1, -2, 0, 0)    // row 0: the class-0 row
	add(96, -1, 0, 1)   // rows 1-96: the heavy class-1 group
	add(15, -1.5, 1, 0) // rows 97-111: the group between the stretches
	add(2, -1.5, 1, 1)  // rows 112-113: seeds of the first stretch's upper rows
	add(30, -0.5, 1, 0) // rows 114-143: more class 0 beside them in y
	add(1, -3, 1, 0)    // row 144: their neighbour below the class-0 row
	adjacent := dataset.NewStore(d, nil).InterpolateView([]dataset.Interpolation{
		{Seed: 1, Neighbor: 0, Q: 0.75},      // (-1.75, 0): the first stretch
		{Seed: 112, Neighbor: 144, Q: 0.25},  // (-1.875, 1): the first stretch
		{Seed: 113, Neighbor: 144, Q: 0.125}, // (-1.6875, 1): the first stretch
		{Seed: 2, Neighbor: 0, Q: 0.25},      // (-1.25, 0): the second stretch
		{Seed: 3, Neighbor: 0, Q: 0.375},     // (-1.375, 0): the second stretch
	})
	return map[string]stretchCase{
		"first feasible":     {v: edge(-2, -1, 0), thr: -1.75},
		"last feasible":      {v: edge(2, 1, 0), thr: 1.5},
		"mixed beyond":       {v: edge(-2, -1, 3), thr: -1.75},
		"mixed below":        {v: edge(2, 1, 3), thr: 1.5},
		"adjacent stretches": {v: adjacent, path: []int{0}, thr: -1.75},
	}
}

// stretchViews draws SMOTE views of random two-class stores: a
// continuous x and y and a coarse m, with the minority in one corner of
// x and y and some label noise, oversampled 300% to 1000% from 3 to 7
// neighbours. Most synthetic values are distinct and of class 1, so
// every list is mostly stretches between the store's values.
func stretchViews(seed uint64) *dataset.View {
	rng := stats.NewRNG(seed)
	d := dataset.New("smote", []dataset.Attribute{
		dataset.NumericAttr("x"), dataset.NumericAttr("y"), dataset.NumericAttr("m"),
	}, []string{"neg", "pos"})
	n := 40 + rng.Intn(160)
	for i := 0; i < n; i++ {
		x, y, m := 1+rng.Float64(), 1+rng.Float64(), float64(1+rng.Intn(4))
		class := 0
		if x > 1.6 && y > 1.3+0.1*m {
			class = 1
		}
		if rng.Intn(12) == 0 {
			class = 1 - class
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, y, m}, Class: class, Weight: 1})
	}
	st := dataset.NewStore(d, nil)
	pct, k := float64(300+100*rng.Intn(8)), 3+rng.Intn(5)
	ni, err := sampling.BuildViewIndex(st, 1, k)
	if err != nil {
		return nil
	}
	v, err := ni.SMOTEView(pct, k, rng)
	if err != nil {
		return nil
	}
	return v
}

// TestStretchCuts holds the group builder's trees on views with
// stretches to the general builder's on the materialised view, node for
// node, thresholds by bits, and requires the cases to reach every place
// a cut can land on a stretch: at its end, inside it at the first and
// at the last feasible cut, and between two stretches that became
// adjacent in a child. Each crafted case must cut where it was built
// to, at the exact bits of the node's value there. Some of the stretch
// ends must lie below a value of the stretch that the node does not
// hold, so a threshold taken from the whole stretch instead of the
// node's rows is caught.
func TestStretchCuts(t *testing.T) {
	var seen [nCutKinds]int
	check := func(name string, v *dataset.View) {
		t.Helper()
		got := grow(v, new(buildScratch))
		if want := growGeneral(v.Materialize()); !nodesEqual(got, want) {
			t.Fatalf("%s: the group builder's tree differs from the general builder's", name)
		}
		b := newViewBuilder(v, new(buildScratch))
		b.growChecked(t, name, v, b.root(v), 0)
		classifyCuts(v, got, v.Rows(), &seen)
		v.Release()
	}
	for name, c := range stretchCutCases() {
		n := grow(c.v, new(buildScratch))
		for _, i := range c.path {
			if !n.IsLeaf() {
				n = n.Children[i]
			}
		}
		if n.IsLeaf() || n.Attr != 0 || math.Float64bits(n.Threshold) != math.Float64bits(c.thr) {
			t.Errorf("%s: node %v splits attr %d at %v, want x at %v", name, c.path, n.Attr, n.Threshold, c.thr)
		}
		check(name, c.v)
	}
	for seed := uint64(1); seed <= 60; seed++ {
		if v := stretchViews(seed); v != nil {
			check(fmt.Sprintf("seed %d", seed), v)
		}
	}
	// The cuts inside a stretch join two class-1 runs, so only the
	// minLeaf gates can leave the best cut there.
	if seen[cutUngated] != 0 {
		t.Errorf("%d cuts inside a stretch away from the minLeaf gates", seen[cutUngated])
	}
	for kind, name := range map[cutKind]string{
		cutStretchEnd: "at a stretch's end", cutFirstFeasible: "at the first feasible cut inside a stretch",
		cutLastFeasible: "at the last feasible cut inside a stretch", cutAdjacent: "between stretches adjacent in a child",
		cutNodeMax: "below a stretch's value the node lacks",
	} {
		if seen[kind] == 0 {
			t.Errorf("no cut %s (cuts by kind: %v)", name, seen)
		}
	}
	t.Logf("cuts by kind: %v", seen)
}
