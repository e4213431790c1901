package dataset

import (
	"slices"
	"sort"
	"sync"
)

// Store is an immutable, column-major snapshot of a training partition,
// built once per cross-validation fold and shared by every refinement
// cell that trains on that fold. It holds what tree induction and the
// sampling transforms otherwise recompute per cell: per-attribute value
// columns, class and (clamped) weight arrays, the ascending row order
// of every numeric attribute, and the missingness answer.
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
	nNumeric    int

	cols    [][]float64 // [attr][row]
	classes []int
	weights []float64 // clamped: w <= 0 stored as 1, matching induction
	sorted  [][]int32 // [attr] ascending row order; nil for nominal attrs
	// and nil everywhere when the partition has missing values (the
	// general missing-value builder re-sorts per node anyway).
	identity   []int32 // cached rows 0..n-1 for identity views
	hasMissing bool
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
		weights:     make([]float64, n),
		identity:    make([]int32, n),
	}
	colArena := make([]float64, n*len(d.Attrs))
	for a := range d.Attrs {
		col := colArena[a*n : (a+1)*n]
		for i := 0; i < n; i++ {
			v := at(i).Values[a]
			col[i] = v
			if IsMissing(v) {
				s.hasMissing = true
			}
		}
		s.cols[a] = col
		if d.Attrs[a].Type == Numeric {
			s.nNumeric++
		}
	}
	for i := 0; i < n; i++ {
		in := at(i)
		s.classes[i] = in.Class
		w := in.Weight
		if w <= 0 {
			w = 1
		}
		s.weights[i] = w
		s.identity[i] = int32(i)
	}
	if !s.hasMissing {
		s.sorted = make([][]int32, len(d.Attrs))
		sortArena := make([]int32, n*s.nNumeric)
		slab := 0
		for a := range d.Attrs {
			if d.Attrs[a].Type != Numeric {
				continue
			}
			idx := sortArena[slab : slab+n]
			slab += n
			copy(idx, s.identity)
			col := s.cols[a]
			sort.Slice(idx, func(i, j int) bool { return col[idx[i]] < col[idx[j]] })
			s.sorted[a] = idx
		}
	}
	return s
}

// Attrs returns the schema attributes (shared; read-only).
func (s *Store) Attrs() []Attribute { return s.attrs }

// ClassValues returns the class domain (shared; read-only).
func (s *Store) ClassValues() []string { return s.classValues }

// HasMissing reports whether any stored value is missing.
func (s *Store) HasMissing() bool { return s.hasMissing }

// Cols returns the column-major value arrays (shared; read-only).
func (s *Store) Cols() [][]float64 { return s.cols }

// Classes returns the per-row class indices (shared; read-only).
func (s *Store) Classes() []int { return s.classes }

// Weights returns the per-row clamped weights (shared; read-only).
func (s *Store) Weights() []float64 { return s.weights }

// Synthetic is one generated training row (a SMOTE interpolation) to be
// appended to a store's base rows through ExtendView.
type Synthetic struct {
	Values []float64
	Class  int
	Weight float64
}

// View is a training set described against a Store: the base rows it
// keeps (possibly repeated), any synthetic rows appended after them,
// and — when the store is missing-free — the pre-merged ascending row
// order of every numeric attribute, so tree induction starts without
// re-sorting anything. Views are cheap (O(rows) to build, no instance
// cloning) and immutable until released; all cells of a fold may read
// them, and the arrays they share with the store, concurrently. Repeat
// and extend views borrow their arrays from a pool: the owner that is
// done with one (and with every fit from it) may Release it.
type View struct {
	store *Store
	// rows lists the view's training rows in instance order — the order
	// the equivalent materialised dataset would hold them. Entries are
	// row ids into cols/classes/weights; ids < store.Len() are base
	// rows (and may repeat), ids >= store.Len() are synthetic.
	rows []int32
	// cols/classes/weights are the store's arrays, or extended copies
	// when synthetic rows exist.
	cols    [][]float64
	classes []int
	weights []float64
	// sorted is the per-numeric-attribute ascending order over exactly
	// the ids in rows (duplicates included); nil when the store has
	// missing values, in which case FitView falls back to the general
	// builder via Materialize.
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
	weights []float64
	sorted  [][]int32
	slabs   []int32
	times   []int32  // per base row: duplicate count (RepeatView)
	keys    []rowKey // synthetic sort keys (ExtendView)
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

// sortedSlabs lays out one n-id slab per numeric attribute of the store
// in the arena, returning the per-attribute table (nil for nominal
// attributes).
func (ar *viewArena) sortedSlabs(s *Store, n int) [][]int32 {
	ar.sorted = grow(ar.sorted, len(s.attrs))
	ar.slabs = grow(ar.slabs, n*s.nNumeric)
	off := 0
	for a := range s.attrs {
		ar.sorted[a] = nil
		if s.sorted[a] != nil {
			ar.sorted[a] = ar.slabs[off : off+n]
			off += n
		}
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
		weights: s.weights,
		sorted:  s.sorted,
	}
}

// SelectView returns the view keeping exactly the given base rows (no
// duplicates), in the given instance order — the undersampling shape.
// Each numeric attribute's sorted order is the store's presorted order
// filtered by membership: O(n) per attribute instead of O(k log k)
// re-sorting.
func (s *Store) SelectView(rows []int32) *View {
	v := &View{
		store:   s,
		rows:    rows,
		cols:    s.cols,
		classes: s.classes,
		weights: s.weights,
	}
	if s.sorted == nil {
		return v
	}
	keep := make([]bool, s.n)
	for _, r := range rows {
		keep[r] = true
	}
	v.sorted = make([][]int32, len(s.attrs))
	arena := make([]int32, len(rows)*s.nNumeric)
	slab := 0
	for a := range s.attrs {
		if s.sorted[a] == nil {
			continue
		}
		out := arena[slab : slab+len(rows)]
		slab += len(rows)
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
// (it is its base row's), so each numeric attribute's order is the
// store's presorted order with every id emitted once per occurrence:
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
		weights:  s.weights,
		appended: m,
		arena:    ar,
	}
	if s.sorted == nil {
		return v
	}
	ar.times = grow(ar.times, n)
	times := ar.times
	clear(times)
	for _, r := range extra {
		times[r]++
	}
	v.sorted = ar.sortedSlabs(s, n+m)
	for a, out := range v.sorted {
		if out == nil {
			continue
		}
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
// synthetic rows appended in order — the SMOTE shape. Columns, classes
// and weights are extended copies (flat arenas, no per-instance
// allocations); each numeric attribute's order sorts only the m
// synthetic rows (as value-keyed pairs) and merges them into the
// store's presorted base order in O(n + m), with base rows winning
// ties. Every array lives in a pooled arena that Release returns; the
// view keeps nothing of syn.
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
	ar.weights = grow(ar.weights, n+m)
	rows := ar.rows
	copy(rows, s.identity)
	v := &View{
		store:    s,
		rows:     rows,
		cols:     ar.colHdr,
		classes:  ar.classes,
		weights:  ar.weights,
		appended: m,
		arena:    ar,
	}
	synMissing := false
	for a := range s.attrs {
		col := ar.colVals[a*(n+m) : (a+1)*(n+m)]
		copy(col, s.cols[a])
		for j := range syn {
			val := syn[j].Values[a]
			col[n+j] = val
			if IsMissing(val) {
				synMissing = true
			}
		}
		v.cols[a] = col
	}
	copy(v.classes, s.classes)
	copy(v.weights, s.weights)
	for j := range syn {
		rows[n+j] = int32(n + j)
		v.classes[n+j] = syn[j].Class
		w := syn[j].Weight
		if w <= 0 {
			w = 1
		}
		v.weights[n+j] = w
	}
	// Interpolating infinite base values can produce NaN synthetics on
	// a missing-free store; those views fall back like missing data.
	if s.sorted == nil || synMissing {
		return v
	}
	v.sorted = ar.sortedSlabs(s, n+m)
	ar.keys = grow(ar.keys, m)
	keys := ar.keys
	for a, out := range v.sorted {
		if out == nil {
			continue
		}
		col := v.cols[a]
		for j := range keys {
			keys[j] = rowKey{v: col[n+j], row: int32(n + j)}
		}
		slices.SortFunc(keys, compareRowKeys)
		base := s.sorted[a]
		i, j, k := 0, 0, 0
		for i < n && j < m {
			if keys[j].v < col[base[i]] {
				out[k] = keys[j].row
				j++
			} else {
				out[k] = base[i]
				i++
			}
			k++
		}
		for ; i < n; i++ {
			out[k] = base[i]
			k++
		}
		for ; j < m; j++ {
			out[k] = keys[j].row
			k++
		}
	}
	return v
}

// rowKey pairs a synthetic row with its value in the attribute being
// ordered, so the sort compares without indirection.
type rowKey struct {
	v   float64
	row int32
}

// compareRowKeys orders by value with the same < as a sort.Slice on
// row ids. Both sorts run Go's one pdqsort template and decide only on
// cmp < 0, so ties (including -0 against +0) land in the same order.
func compareRowKeys(a, b rowKey) int {
	switch {
	case a.v < b.v:
		return -1
	case b.v < a.v:
		return 1
	}
	return 0
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

// Weights returns per-row clamped weights (shared; read-only).
func (v *View) Weights() []float64 { return v.weights }

// Sorted returns the per-numeric-attribute ascending row orders, or nil
// when the view cannot guarantee them (missing values in the store, or
// NaN-valued synthetics); see FitView's fallback.
func (v *View) Sorted() [][]int32 { return v.sorted }

// HasMissing reports whether fast induction must fall back to the
// general missing-value builder for this view. It is true exactly when
// Sorted is unavailable: the store holds missing values, or a synthetic
// row interpolated to NaN.
func (v *View) HasMissing() bool { return v.sorted == nil }

// Materialize builds the instance-major dataset the view describes, in
// the view's instance order. Used by the missing-value fallback, by
// learners without FitView, and by equivalence tests.
func (v *View) Materialize() *Dataset {
	out := New(v.store.name, v.store.attrs, v.store.classValues)
	out.Instances = make([]Instance, 0, len(v.rows))
	for _, r := range v.rows {
		vs := make([]float64, len(v.store.attrs))
		for a := range v.store.attrs {
			vs[a] = v.cols[a][r]
		}
		out.Instances = append(out.Instances, Instance{Values: vs, Class: v.classes[r], Weight: v.weights[r]})
	}
	return out
}
