package tree

import (
	"math"

	"edem/internal/stats"
)

// prune applies C4.5's pessimistic error-based pruning by subtree
// replacement: bottom-up, a subtree is collapsed into a leaf whenever
// the leaf's estimated (upper-confidence-bound) error count does not
// exceed the sum of its branches' estimates.
func prune(n *Node) float64 {
	if n.IsLeaf() {
		return leafErrors(n)
	}
	subtreeErr := 0.0
	for _, ch := range n.Children {
		subtreeErr += prune(ch)
	}
	asLeafErr := leafErrors(n)
	if asLeafErr <= subtreeErr+1e-9 {
		n.Attr = -1
		n.Children = nil
		n.Class = argmax(n.Dist)
		return asLeafErr
	}
	return subtreeErr
}

// leafErrors estimates the error count of the node treated as a leaf:
// observed errors plus the pessimistic correction.
func leafErrors(n *Node) float64 {
	total := sum(n.Dist)
	if total <= 0 {
		return 0
	}
	errs := total - n.Dist[argmax(n.Dist)]
	return errs + addErrs(total, errs)
}

// addErrs computes the C4.5 pessimistic correction: the number of
// additional errors implied by the upper limit of a confidence interval
// (the pruning confidence) around the observed error rate e/N. The
// special cases for e < 1 and e close to N follow Quinlan's
// implementation.
func addErrs(n, e float64) float64 {
	if e < 1 {
		// Base case: upper bound when no errors were observed.
		base := n * (1 - math.Pow(confidence, 1/n))
		if e == 0 {
			return base
		}
		return base + e*(addErrs(n, 1)-base)
	}
	if e+0.5 >= n {
		return math.Max(n-e, 0)
	}
	z := stats.NormalInverse(1 - confidence)
	f := (e + 0.5) / n
	r := (f + z*z/(2*n) + z*math.Sqrt(f/n-f*f/n+z*z/(4*n*n))) / (1 + z*z/n)
	return r*n - e
}
