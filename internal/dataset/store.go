package dataset

import (
	"math"
	"sort"
	"sync"
)

// Store is an immutable, column-major snapshot of a training partition,
// built once per cross-validation fold and shared by every refinement
// cell that trains on that fold. It holds what tree induction and the
// sampling transforms otherwise recompute per cell: per-attribute value
// columns, the class array, and the ascending row order of every
// attribute with the end of every row's value group in it. Its rows
// come from a dataset that Add or Validate checked, so every value is
// a number and every row weighs 1.
//
// Concurrency contract: a Store is immutable after NewStore returns.
// Views hand the store's arrays to concurrent tree builders, which read
// them only; anything per-cell (scratch buffers, partitions) lives in
// the builder, never in the store.
type Store struct {
	name        string
	attrs       []Attribute
	classValues []string
	n           int

	cols    [][]float64 // [attr][row]
	classes []int
	sorted  [][]int32 // [attr] ascending row order
	// groupEnd[a][r] is where row r's value group (its run of == values,
	// so -0 and +0 share one) ends in sorted[a]: the position after its
	// last member. ExtendView places a synthetic row equal to its seed's
	// value there.
	groupEnd [][]int32
	identity []int32 // cached rows 0..n-1 for identity views
}

// NewStore snapshots the instances of d at the given indices (all of d
// when rows is nil), in index order — the same instance order
// d.Subset(rows) would produce.
func NewStore(d *Dataset, rows []int) *Store {
	n := len(rows)
	if rows == nil {
		n = len(d.Instances)
	}
	at := func(i int) *Instance {
		if rows == nil {
			return &d.Instances[i]
		}
		return &d.Instances[rows[i]]
	}

	s := &Store{
		name:        d.Name,
		attrs:       d.Attrs,
		classValues: d.ClassValues,
		n:           n,
		cols:        make([][]float64, len(d.Attrs)),
		classes:     make([]int, n),
		sorted:      make([][]int32, len(d.Attrs)),
		groupEnd:    make([][]int32, len(d.Attrs)),
		identity:    make([]int32, n),
	}
	colArena := make([]float64, n*len(d.Attrs))
	for a := range d.Attrs {
		col := colArena[a*n : (a+1)*n]
		for i := 0; i < n; i++ {
			col[i] = at(i).Values[a]
		}
		s.cols[a] = col
	}
	for i := 0; i < n; i++ {
		s.classes[i] = at(i).Class
		s.identity[i] = int32(i)
	}
	sortArena := make([]int32, 2*n*len(d.Attrs))
	for a := range d.Attrs {
		idx := sortArena[2*a*n : (2*a+1)*n]
		ends := sortArena[(2*a+1)*n : (2*a+2)*n]
		copy(idx, s.identity)
		col := s.cols[a]
		sort.Slice(idx, func(i, j int) bool { return col[idx[i]] < col[idx[j]] })
		for i := 0; i < n; {
			e := i + 1
			for e < n && col[idx[e]] == col[idx[i]] {
				e++
			}
			for ; i < e; i++ {
				ends[idx[i]] = int32(e)
			}
		}
		s.sorted[a] = idx
		s.groupEnd[a] = ends
	}
	return s
}

// Attrs returns the schema attributes (shared; read-only).
func (s *Store) Attrs() []Attribute { return s.attrs }

// ClassValues returns the class domain (shared; read-only).
func (s *Store) ClassValues() []string { return s.classValues }

// Cols returns the column-major value arrays (shared; read-only).
func (s *Store) Cols() [][]float64 { return s.cols }

// Classes returns the per-row class indices (shared; read-only).
func (s *Store) Classes() []int { return s.classes }

// Synthetic is one generated training row (a SMOTE interpolation) to be
// appended to a store's base rows through ExtendView. Seed is the base
// row it was interpolated from: ExtendView places a value equal to the
// seed's own without sorting it. Any base row id is correct, since the
// placement checks the value; one outside the store just sorts.
type Synthetic struct {
	Values []float64
	Class  int
	Seed   int
}

// View is a training set described against a Store: the base rows it
// keeps (possibly repeated), any synthetic rows appended after them,
// and the pre-merged ascending row order of every attribute, so tree
// induction starts without re-sorting anything. Each order holds every
// view row exactly once, and within a run of equal values the base
// rows come first, in the store's order; the order of the other rows
// inside a run is not specified, since it cannot change a tree
// (DESIGN.md §10). Every row weighs 1: a sampled row is a copy or an
// interpolation of a store row.
// Views are cheap (O(rows) to build, no instance cloning) and immutable
// until released; all cells of a fold may read them, and the arrays
// they share with the store, concurrently. Repeat and extend views
// borrow their arrays from a pool: the owner that is done with one (and
// with every fit from it) may Release it.
type View struct {
	store *Store
	// rows lists the view's training rows in instance order — the order
	// the equivalent materialised dataset would hold them. Entries are
	// row ids into cols/classes; ids < store.Len() are base rows (and
	// may repeat), ids >= store.Len() are synthetic.
	rows []int32
	// cols/classes are the store's arrays, or extended copies when
	// synthetic rows exist.
	cols    [][]float64
	classes []int
	// sorted is the per-attribute ascending order over exactly the ids
	// in rows (duplicates included).
	sorted   [][]int32
	appended int // rows beyond the base partition (duplicates + synthetic)
	// arena backs rows, sorted and any extended arrays of a repeat or
	// extend view; nil for identity and select views. Release returns it.
	arena *viewArena
}

// viewArena is the reusable memory of a repeat or extend view. Every
// array a view reads is fully written when the view is built, so an
// arena from the pool needs no clearing except the times counters.
type viewArena struct {
	rows    []int32
	colHdr  [][]float64
	colVals []float64
	classes []int
	sorted  [][]int32
	slabs   []int32
	times   []int32 // per base row: duplicate count (RepeatView)
	// ExtendView scratch: per synthetic, its seed (-1: none) and the
	// group end it ties at (-1: sorted instead); per base position, the
	// tied rows ending there, then their offsets; the tied rows by group
	// end; the radix keys.
	seeds []int32
	at    []int32
	ends  []int32
	tied  []int32
	keys  []rowKey
	keys2 []rowKey
}

// viewArenas recycles released views' arenas, so the refinement grid's
// cells reuse a few large buffers instead of allocating their own.
var viewArenas = sync.Pool{New: func() any { return new(viewArena) }}

// grow returns s resliced to n elements, or a fresh slice when s is too
// small. Reused elements keep their old contents.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sortedSlabs lays out one n-id slab per attribute of the store in the
// arena, returning the per-attribute table.
func (ar *viewArena) sortedSlabs(s *Store, n int) [][]int32 {
	ar.sorted = grow(ar.sorted, len(s.attrs))
	ar.slabs = grow(ar.slabs, n*len(s.attrs))
	for a := range ar.sorted {
		ar.sorted[a] = ar.slabs[a*n : (a+1)*n]
	}
	return ar.sorted
}

// IdentityView returns the whole-partition view (the NoSampling
// configuration): no filtering, no appended rows, the store's own
// sorted orders. O(1) — everything is shared.
func (s *Store) IdentityView() *View {
	return &View{
		store:   s,
		rows:    s.identity,
		cols:    s.cols,
		classes: s.classes,
		sorted:  s.sorted,
	}
}

// SelectView returns the view keeping exactly the given base rows (no
// duplicates), in the given instance order — the undersampling shape.
// Each attribute's sorted order is the store's presorted order
// filtered by membership: O(n) per attribute instead of O(k log k)
// re-sorting.
func (s *Store) SelectView(rows []int32) *View {
	v := &View{
		store:   s,
		rows:    rows,
		cols:    s.cols,
		classes: s.classes,
	}
	keep := make([]bool, s.n)
	for _, r := range rows {
		keep[r] = true
	}
	v.sorted = make([][]int32, len(s.attrs))
	arena := make([]int32, len(rows)*len(s.attrs))
	for a := range s.attrs {
		out := arena[a*len(rows) : (a+1)*len(rows)]
		i := 0
		for _, r := range s.sorted[a] {
			if keep[r] {
				out[i] = r
				i++
			}
		}
		v.sorted[a] = out
	}
	return v
}

// RepeatView returns the view holding every base row plus the given
// duplicate row references appended in order — the oversampling-with-
// replacement shape. A duplicate's sorted position is already known
// (it is its base row's), so each attribute's order is the store's
// presorted order with every id emitted once per occurrence:
// O(n + m), no sorting and no value copies at all. The row list and the
// orders live in a pooled arena that Release returns.
func (s *Store) RepeatView(extra []int32) *View {
	return s.repeatView(extra, viewArenas.Get().(*viewArena))
}

// repeatView builds RepeatView's view in the given arena.
func (s *Store) repeatView(extra []int32, ar *viewArena) *View {
	n, m := s.n, len(extra)
	ar.rows = grow(ar.rows, n+m)
	copy(ar.rows, s.identity)
	copy(ar.rows[n:], extra)
	v := &View{
		store:    s,
		rows:     ar.rows,
		cols:     s.cols,
		classes:  s.classes,
		appended: m,
		arena:    ar,
	}
	ar.times = grow(ar.times, n)
	times := ar.times
	clear(times)
	for _, r := range extra {
		times[r]++
	}
	v.sorted = ar.sortedSlabs(s, n+m)
	for a, out := range v.sorted {
		i := 0
		for _, r := range s.sorted[a] {
			out[i] = r
			i++
			for t := times[r]; t > 0; t-- {
				out[i] = r
				i++
			}
		}
	}
	return v
}

// ExtendView returns the view holding every base row plus the given
// synthetic rows appended in order — the SMOTE shape. Columns and
// classes are extended copies (flat arenas, no per-instance
// allocations). Each attribute's order is the store's presorted base
// order with the synthetic rows merged in, in O(n + m): a
// synthetic equal to its seed's value goes to the end of the seed's
// value group, where the store says that group ends, and only the
// others are sorted, by a stable radix sort. Within every value group
// the base rows come first, in the store's order, then the synthetic
// ones. A synthetic value must not be NaN; ±Inf is ordered like any
// other number. Every array lives in a pooled arena that Release
// returns; the view keeps nothing of syn.
func (s *Store) ExtendView(syn []Synthetic) *View {
	return s.extendView(syn, viewArenas.Get().(*viewArena))
}

// extendView builds ExtendView's view in the given arena.
func (s *Store) extendView(syn []Synthetic, ar *viewArena) *View {
	n, m := s.n, len(syn)
	ar.rows = grow(ar.rows, n+m)
	ar.colHdr = grow(ar.colHdr, len(s.attrs))
	ar.colVals = grow(ar.colVals, (n+m)*len(s.attrs))
	ar.classes = grow(ar.classes, n+m)
	rows := ar.rows
	copy(rows, s.identity)
	v := &View{
		store:    s,
		rows:     rows,
		cols:     ar.colHdr,
		classes:  ar.classes,
		appended: m,
		arena:    ar,
	}
	for a := range s.attrs {
		col := ar.colVals[a*(n+m) : (a+1)*(n+m)]
		copy(col, s.cols[a])
		for j := range syn {
			col[n+j] = syn[j].Values[a]
		}
		v.cols[a] = col
	}
	copy(v.classes, s.classes)
	for j := range syn {
		rows[n+j] = int32(n + j)
		v.classes[n+j] = syn[j].Class
	}
	v.sorted = ar.sortedSlabs(s, n+m)
	ar.seeds = grow(ar.seeds, m)
	for j := range syn {
		ar.seeds[j] = -1
		if seed := syn[j].Seed; uint(seed) < uint(n) {
			ar.seeds[j] = int32(seed)
		}
	}
	ar.at = grow(ar.at, m)
	ar.ends = grow(ar.ends, n+1)
	ar.tied = grow(ar.tied, m)
	ar.keys = grow(ar.keys, m)
	ar.keys2 = grow(ar.keys2, m)
	for a, out := range v.sorted {
		ar.mergeSynthetic(out, s.sorted[a], s.groupEnd[a], v.cols[a])
	}
	return v
}

// mergeSynthetic writes into out one attribute's order over the base
// rows (in base order, with group ends ends) and the synthetic rows
// n.. of col, whose seeds ar.seeds holds.
func (ar *viewArena) mergeSynthetic(out, base, ends []int32, col []float64) {
	n := len(base)
	// Counting pass: a synthetic tied with its seed goes to the end of
	// the seed's group; the rest are keyed for the sort.
	at, cnt := ar.at, ar.ends
	clear(cnt)
	keys := ar.keys[:0]
	for j, seed := range ar.seeds {
		if x := col[n+j]; seed >= 0 && x == col[seed] {
			e := ends[seed]
			at[j] = e
			cnt[e]++
			continue
		}
		at[j] = -1
		keys = append(keys, rowKey{key: orderKey(col[n+j]), row: int32(n + j)})
	}
	keys = radixSort(keys, ar.keys2[:len(keys)])
	// The tied rows by group end, in row order within each end: cnt
	// becomes each end's first offset, then its cursor.
	off := int32(0)
	for e, c := range cnt {
		cnt[e] = off
		off += c
	}
	for j, e := range at {
		if e >= 0 {
			ar.tied[cnt[e]] = int32(n + j)
			cnt[e]++
		}
	}
	// Merge: sorted synthetics strictly below a base value precede it;
	// after the last row of a group come its tied rows, which cnt[i+1]
	// now ends.
	k, t, u := 0, int32(0), 0
	for i, r := range base {
		if u < len(keys) {
			bk := orderKey(col[r])
			for u < len(keys) && keys[u].key < bk {
				out[k] = keys[u].row
				k++
				u++
			}
		}
		out[k] = r
		k++
		for ; t < cnt[i+1]; t++ {
			out[k] = ar.tied[t]
			k++
		}
	}
	for ; u < len(keys); u++ {
		out[k] = keys[u].row
		k++
	}
}

// rowKey pairs a synthetic row with the order key of its value in the
// attribute being ordered.
type rowKey struct {
	key uint64
	row int32
}

// orderKey maps a non-NaN value onto an integer of the same order,
// with -0 keyed as +0 so the two tie as they do under ==.
func orderKey(x float64) uint64 {
	if x == 0 {
		return 1 << 63
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSort sorts keys by key, stably, with an LSD radix sort over
// bytes that skips every byte all keys share. tmp must be as long as
// keys; the result is one of the two.
func radixSort(keys, tmp []rowKey) []rowKey {
	if len(keys) <= 64 {
		// A stable insertion sort gives the same order, faster than
		// the histograms' fixed cost at this size.
		for i := 1; i < len(keys); i++ {
			k := keys[i]
			j := i
			for ; j > 0 && keys[j-1].key > k.key; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
		return keys
	}
	var hist [8][256]int32
	for _, k := range keys {
		x := k.key
		hist[0][byte(x)]++
		hist[1][byte(x>>8)]++
		hist[2][byte(x>>16)]++
		hist[3][byte(x>>24)]++
		hist[4][byte(x>>32)]++
		hist[5][byte(x>>40)]++
		hist[6][byte(x>>48)]++
		hist[7][byte(x>>56)]++
	}
	for d := range hist {
		h := &hist[d]
		shift := uint(8 * d)
		if h[byte(keys[0].key>>shift)] == int32(len(keys)) {
			continue
		}
		off := int32(0)
		for b, c := range h {
			h[b] = off
			off += c
		}
		for _, k := range keys {
			b := byte(k.key >> shift)
			tmp[h[b]] = k
			h[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// Release hands a repeat or extend view's arrays back to the pool for
// the next view to reuse, and zeroes the view. After Release the view,
// and every slice its accessors returned, must not be used: a later
// view may overwrite them. Models fitted from the view keep none of its
// arrays, so a view may be released once its fits are done. On
// identity and select views, which own nothing, Release is a no-op, as
// is a second Release.
func (v *View) Release() {
	if v.arena == nil {
		return
	}
	viewArenas.Put(v.arena)
	*v = View{}
}

// Len returns the number of training rows in the view.
func (v *View) Len() int { return len(v.rows) }

// Appended returns how many rows the view holds beyond the base
// partition (duplicate references plus synthetic rows).
func (v *View) Appended() int { return v.appended }

// Attrs returns the schema attributes (shared; read-only).
func (v *View) Attrs() []Attribute { return v.store.attrs }

// ClassValues returns the class domain (shared; read-only).
func (v *View) ClassValues() []string { return v.store.classValues }

// Rows returns the view's row ids in instance order (shared; read-only).
func (v *View) Rows() []int32 { return v.rows }

// Cols returns the column-major values covering every id in Rows
// (shared; read-only).
func (v *View) Cols() [][]float64 { return v.cols }

// Classes returns per-row class indices (shared; read-only).
func (v *View) Classes() []int { return v.classes }

// Sorted returns the per-attribute ascending row orders (shared;
// read-only).
func (v *View) Sorted() [][]int32 { return v.sorted }

// Materialize builds the instance-major dataset the view describes, in
// the view's instance order. Used by SamplingConfig.Transform and by
// equivalence tests.
func (v *View) Materialize() *Dataset {
	out := New(v.store.name, v.store.attrs, v.store.classValues)
	out.Instances = make([]Instance, 0, len(v.rows))
	for _, r := range v.rows {
		vs := make([]float64, len(v.store.attrs))
		for a := range v.store.attrs {
			vs[a] = v.cols[a][r]
		}
		out.Instances = append(out.Instances, Instance{Values: vs, Class: v.classes[r], Weight: 1})
	}
	return out
}
