package tree

import (
	"math"
	"testing"
)

func TestAddErrsKnownValues(t *testing.T) {
	// Values cross-checked against Quinlan's published formula at the
	// pruning confidence CF 0.25.
	if got := addErrs(100, 0); got <= 0 || got >= 2 {
		t.Errorf("addErrs(100,0) = %v, want small positive", got)
	}
	// e=0 base case: N*(1-CF^(1/N)).
	want := 10 * (1 - math.Pow(0.25, 0.1))
	if got := addErrs(10, 0); math.Abs(got-want) > 1e-9 {
		t.Errorf("addErrs(10,0) = %v, want %v", got, want)
	}
	// e close to N.
	if got := addErrs(10, 9.8); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("addErrs near N = %v, want ~0.2", got)
	}
}

func TestAddErrsMonotonicInE(t *testing.T) {
	prev := addErrs(100, 1) + 1
	for e := 2.0; e < 50; e += 3 {
		total := addErrs(100, e) + e
		if total < prev {
			t.Errorf("pessimistic total errors not monotone at e=%v", e)
		}
		prev = total
	}
}

func TestPruneCollapsesUselessSplit(t *testing.T) {
	// A split whose children predict the same class as the parent with
	// no error reduction must collapse.
	leafA := &Node{Attr: -1, Dist: []float64{30, 2}, Class: 0}
	leafB := &Node{Attr: -1, Dist: []float64{28, 3}, Class: 0}
	root := &Node{
		Attr: 0, Threshold: 0.5,
		Children: []*Node{leafA, leafB},
		Dist:     []float64{58, 5},
		Class:    0,
	}
	prune(root)
	if !root.IsLeaf() {
		t.Fatal("useless split should be pruned to a leaf")
	}
	if root.Class != 0 {
		t.Fatalf("pruned class = %d", root.Class)
	}
}

func TestPruneKeepsUsefulSplit(t *testing.T) {
	leafA := &Node{Attr: -1, Dist: []float64{50, 0}, Class: 0}
	leafB := &Node{Attr: -1, Dist: []float64{0, 50}, Class: 1}
	root := &Node{
		Attr: 0, Threshold: 0.5,
		Children: []*Node{leafA, leafB},
		Dist:     []float64{50, 50},
		Class:    0,
	}
	prune(root)
	if root.IsLeaf() {
		t.Fatal("a perfectly discriminating split must survive pruning")
	}
}

func TestLeafErrorsEmpty(t *testing.T) {
	n := &Node{Attr: -1, Dist: []float64{0, 0}, Class: 0}
	if got := leafErrors(n); got != 0 {
		t.Fatalf("empty leaf errors = %v", got)
	}
}
