package sampling

import (
	"fmt"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// NeighborIndex caches the k-nearest-neighbour lists of a store's
// minority class so a refinement grid can evaluate many SMOTE
// configurations (different percentages and neighbour counts) against
// one training partition without recomputing the O(m²) neighbour
// search per configuration.
type NeighborIndex struct {
	st     *dataset.Store
	class  int
	minIdx []int
	lists  [][]int
	maxK   int
}

// BuildViewIndex computes up to maxK nearest minority neighbours for
// every minority row of a columnar store: the shared search with no
// slack, over the store itself. The index serves views via
// SMOTEView/OversampleView.
func BuildViewIndex(st *dataset.Store, minorityClass, maxK int) (*NeighborIndex, error) {
	si, err := buildSharedIndex(st, minorityClass, maxK, 0)
	if err != nil {
		return nil, err
	}
	return si.Whole(), nil
}

// sharedSlack is how much deeper than maxK the shared search keeps its
// lists: a fold drops its held-out rows from them, about one in ten,
// and rescans a row only when more than sharedSlack of its list were
// held out.
const sharedSlack = 8

// SharedIndex is one neighbour search over the minority rows of a whole
// dataset's store, serving every cross-validation fold whose training
// store has the same spans (sameKernel), and the final fit.
//
// A fold's distances depend on the fold only through the attributes'
// spans over its training store. Where those equal the whole dataset's,
// a fold row's distances to the other fold rows are the whole search's,
// bit for bit, and its fold list is its whole list with the held-out
// rows dropped: fold rows keep the dataset's row order (Fold.Train is
// ascending), so the (distance, row) order carries over. The whole
// lists hold maxK + sharedSlack entries, so a filtered list still holds
// maxK nearly always; one that runs short is searched again against
// the fold (a rescan), with the same kernel.
type SharedIndex struct {
	whole *NeighborIndex // the whole store's own index: each list's first maxK
	g     *minorityCols  // the whole minority, gathered for rescans
	spans []float64      // the whole store's spans
	depth int            // entries per list in pos
	pos   []int32        // row p's list: pos[p*depth : (p+1)*depth], positions in whole.minIdx
}

// BuildSharedIndex searches the minority rows of st, the whole
// dataset's store, for their maxK + sharedSlack nearest minority
// neighbours.
func BuildSharedIndex(st *dataset.Store, minorityClass, maxK int) (*SharedIndex, error) {
	return buildSharedIndex(st, minorityClass, maxK, sharedSlack)
}

// buildSharedIndex is BuildSharedIndex with the slack as an argument:
// BuildViewIndex searches without slack, and a test can force rescans.
func buildSharedIndex(st *dataset.Store, minorityClass, maxK, slack int) (*SharedIndex, error) {
	if maxK < 1 {
		return nil, ErrBadK
	}
	minIdx, err := storeMinority(st, minorityClass)
	if err != nil {
		return nil, err
	}
	si := &SharedIndex{spans: spans(st)}
	si.g = gatherMinority(st, minIdx, si.spans)
	si.pos, si.depth = si.g.search(maxK + slack)
	lists := make([][]int, 1)
	if len(minIdx) > 1 {
		lists = neighborLists(si.pos, si.depth, min(maxK, si.depth), minIdx)
	}
	si.whole = &NeighborIndex{st: st, class: minorityClass, minIdx: minIdx, lists: lists, maxK: maxK}
	return si, nil
}

// Whole returns the index over the whole dataset's store itself: the
// lists BuildViewIndex would search for it.
func (si *SharedIndex) Whole() *NeighborIndex { return si.whole }

// Shares reports whether the fold store st has the whole store's
// spans, so FoldIndex may derive its index from the shared lists.
func (si *SharedIndex) Shares(st *dataset.Store) bool {
	return sameKernel(spans(st), si.spans)
}

// FoldIndex returns the index over the fold store st, which must hold
// the whole store's rows train (ascending) and share its spans
// (Shares): the lists BuildViewIndex would search for st. It also
// returns how many rows it rescanned.
func (si *SharedIndex) FoldIndex(st *dataset.Store, train []int) (*NeighborIndex, int, error) {
	w := si.whole
	minIdx, err := storeMinority(st, w.class)
	if err != nil {
		return nil, 0, err
	}
	ni := &NeighborIndex{st: st, class: w.class, minIdx: minIdx, maxK: w.maxK}
	k := min(w.maxK, len(minIdx)-1)
	if k < 1 {
		ni.lists = make([][]int, 1)
		return ni, 0, nil
	}
	// foldRow[p] is the fold row of the whole minority's p-th row, or -1
	// where the fold holds it out.
	foldRow := make([]int32, len(w.minIdx))
	i := 0
	for p, r := range w.minIdx {
		for i < len(train) && train[i] < r {
			i++
		}
		foldRow[p] = -1
		if i < len(train) && train[i] == r {
			foldRow[p] = int32(i)
		}
	}
	ni.lists = make([][]int, len(minIdx))
	flat := make([]int, len(minIdx)*k)
	rescans, x := 0, 0
	for p, fr := range foldRow {
		if fr < 0 {
			continue
		}
		nn := flat[x*k : x*k : (x+1)*k]
		for _, q := range si.pos[p*si.depth : (p+1)*si.depth] {
			if foldRow[q] >= 0 {
				if nn = append(nn, int(foldRow[q])); len(nn) == k {
					break
				}
			}
		}
		if len(nn) < k {
			nn = si.rescan(p, foldRow, nn[:0:k])
			rescans++
		}
		ni.lists[x] = nn
		x++
	}
	return ni, rescans, nil
}

// rescan searches the whole minority's row p against the rows the fold
// keeps (foldRow >= 0) with the kernel of search, and appends the fold
// rows of its cap(nn) nearest to nn.
func (si *SharedIndex) rescan(p int, foldRow []int32, nn []int) []int {
	dist := make([]float64, si.g.m)
	si.g.distances(p, 0, dist)
	nl := newNearest(1, cap(nn))
	for q, fr := range foldRow {
		if q == p || fr < 0 {
			continue
		}
		if key := distKey(dist[q]); key < nl.keys[nl.k-1] {
			nl.insert(0, key, int32(q))
		}
	}
	for _, q := range nl.pos[:nl.k] {
		nn = append(nn, int(foldRow[q]))
	}
	return nn
}

// SMOTEView generates percent% synthetic minority rows from the first k
// cached neighbours of each seed, as a view of the index's store: each
// synthetic row interpolated from a seed row towards one of its k
// nearest minority neighbours, s = t + q*(n - t) with q uniform in
// [0,1). k must not exceed the index's maxK.
func (ni *NeighborIndex) SMOTEView(percent float64, k int, rng *stats.RNG) (*dataset.View, error) {
	if k < 1 || k > ni.maxK {
		return nil, fmt.Errorf("%w: k=%d (index holds %d)", ErrBadK, k, ni.maxK)
	}
	return smoteView(ni.st, ni.minIdx, ni.lists, k, percent, rng)
}

// OversampleView generates percent% minority copies with replacement as
// a repeat view of the index's store (duplicate row references, no
// value copies), using the cached minority rows. Same RNG stream as the
// standalone OversampleView.
func (ni *NeighborIndex) OversampleView(percent float64, rng *stats.RNG) (*dataset.View, error) {
	return smoteView(ni.st, ni.minIdx, nil, 0, percent, rng)
}
