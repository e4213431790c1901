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
// columns, the class array, and every attribute's value groups. Its
// rows come from a dataset that Add or Validate checked, so every value
// is a number and every row weighs 1.
//
// A value group is a maximal run of bit-identical values in the
// attribute's ascending row order (sorted with sort.Slice). Each group
// is tagged with its run of == values, which differs from the group
// only where -0 and +0 meet: such a run holds one group per stretch of
// equal sign, in the order the sort left them, so the last group of a
// run still says which zero its last row holds.
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
	// groups[a] lists attribute a's value groups in ascending order;
	// a store group's ID is its index there.
	groups   [][]Group
	rowGroup [][]int32   // [attr][row] the row's group ID
	groupVal [][]float64 // [attr][group ID] the group's value
	identity []int32     // cached rows 0..n-1 for identity views
}

// Group is one entry of an attribute's group list: a run of rows that
// share one value, bit for bit, with the number of them in class 1.
// A list is ascending; adjacent entries with the same Run hold == values
// (the two zeros), and every entry holds at least one row.
//
// An entry with a negative Run is a stretch instead: rows of class 1
// whose values are pairwise distinct under == and lie strictly between
// the values of the entries on either side, so it stands for N runs of
// one row each. Its rows map to its ID, but its GroupValues slot holds
// NaN: which value ends a stretch depends on which of its rows a node
// holds (see InterpolateView).
type Group struct {
	ID   int32 // index into the view's GroupValues, the value RowGroups maps the rows to
	Run  int32 // the run of == values the group belongs to; equal only within a run; negative for a stretch
	N    int32 // rows in the group
	Ones int32 // of them, rows of class 1
}

// one is 1 for class 1 and 0 otherwise: a group's contribution to Ones.
func one(class int) int32 {
	if class == 1 {
		return 1
	}
	return 0
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

	nAttrs := len(d.Attrs)
	s := &Store{
		name:        d.Name,
		attrs:       d.Attrs,
		classValues: d.ClassValues,
		n:           n,
		cols:        make([][]float64, nAttrs),
		classes:     make([]int, n),
		groups:      make([][]Group, nAttrs),
		rowGroup:    make([][]int32, nAttrs),
		groupVal:    make([][]float64, nAttrs),
		identity:    make([]int32, n),
	}
	colArena := make([]float64, n*nAttrs)
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
	rgArena := make([]int32, n*nAttrs)
	idx := make([]int32, n)
	for a := range d.Attrs {
		copy(idx, s.identity)
		col := s.cols[a]
		sort.Slice(idx, func(i, j int) bool { return col[idx[i]] < col[idx[j]] })
		rg := rgArena[a*n : (a+1)*n]
		nGroups := 0
		for i := range idx {
			if i == 0 || math.Float64bits(col[idx[i]]) != math.Float64bits(col[idx[i-1]]) {
				nGroups++
			}
		}
		groups := make([]Group, 0, nGroups)
		vals := make([]float64, 0, nGroups)
		for i := 0; i < n; {
			x := col[idx[i]]
			run := int32(0)
			if k := len(vals); k > 0 {
				run = groups[k-1].Run
				if vals[k-1] != x {
					run++
				}
			}
			g := Group{ID: int32(len(groups)), Run: run}
			bits := math.Float64bits(x)
			for ; i < n && math.Float64bits(col[idx[i]]) == bits; i++ {
				r := idx[i]
				rg[r] = g.ID
				g.N++
				g.Ones += one(s.classes[r])
			}
			groups = append(groups, g)
			vals = append(vals, x)
		}
		s.groups[a] = groups
		s.rowGroup[a] = rg
		s.groupVal[a] = vals
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

// Interpolation is one planned SMOTE row of an extend view: in every
// attribute the value interpolate(seed's, neighbour's, Q), and the
// seed's class. Seed and Neighbor are base rows of the store.
type Interpolation struct {
	Seed, Neighbor int32
	Q              float64
}

// interpolate returns the SMOTE coordinate sv + q*(nv-sv) between a
// seed value sv and a neighbour value nv. Where that is NaN it returns
// sv: on a column holding both ±1e308 clamps nv-sv overflows to ±Inf,
// and q = 0 makes 0·Inf. The seed's value is what q = 0 means. A ±Inf
// result stays: the view's group merge orders it like any number.
func interpolate(sv, nv, q float64) float64 {
	if x := sv + q*(nv-sv); x == x {
		return x
	}
	return sv
}

// View is a training set described against a Store: the base rows it
// keeps (possibly repeated), any synthetic rows appended after them,
// and, per attribute, the view's group list (the store's groups with
// the view's row and class counts, plus groups and stretches of
// synthetic values) and every row's group ID, so tree induction starts
// without sorting or grouping anything. A group list orders its entries
// as the rows would be ordered if sorted: ascending, and within a run
// of == values the base rows first, in the store's order, then the
// synthetic rows tied to a seed of that value, then the others, each in
// row order; a stretch's rows, all distinct, in any order. That order
// decides only which zero a threshold on a mixed run records (DESIGN.md
// §10). Every row weighs 1: a sampled row is a copy or an interpolation
// of a store row.
// Views are cheap (O(groups + appended rows) per attribute to build, no
// instance cloning) and immutable until released; all cells of a fold
// may read them, and the arrays they share with the store,
// concurrently. Repeat and extend views borrow their arrays from a
// pool: the owner that is done with one (and with every fit from it)
// may Release it.
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
	// groups, rowGroup and groupVal are the store's, or the view's own
	// when its counts or groups differ (see Groups).
	groups   [][]Group
	rowGroup [][]int32
	groupVal [][]float64
	appended int // rows beyond the base partition (duplicates + synthetic)
	// arena backs the arrays of a repeat or extend view; nil for
	// identity and select views. Release returns it.
	arena *viewArena
}

// viewArena is the reusable memory of a repeat or extend view. Every
// array a view reads is fully written when the view is built, so an
// arena from the pool needs no clearing except the join counters.
type viewArena struct {
	rows     []int32
	colHdr   [][]float64
	colVals  []float64
	classes  []int
	groupHdr [][]Group
	groups   []Group // group lists (repeat views; extend views take from it)
	rgHdr    [][]int32
	rgVals   []int32
	gvHdr    [][]float64
	gvVals   []float64 // extend views' group values, beside groups
	used     int       // entries of groups and gvVals the extend view took
	want     int       // entries the last extend view's lists needed
	// InterpolateView scratch: per store group, the rows that join it
	// (rows << 32 | class-1 rows; SelectView counts the kept rows
	// there); the zeros tied with their seed; the radix keys.
	joins []uint64
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

// IdentityView returns the whole-partition view (the NoSampling
// configuration): no filtering, no appended rows, the store's own
// groups. O(1) — everything is shared.
func (s *Store) IdentityView() *View {
	return &View{
		store:    s,
		rows:     s.identity,
		cols:     s.cols,
		classes:  s.classes,
		groups:   s.groups,
		rowGroup: s.rowGroup,
		groupVal: s.groupVal,
	}
}

// SelectView returns the view keeping exactly the given base rows (no
// duplicates), in the given instance order — the undersampling shape.
// Each attribute's group list is the store's, counted over the kept
// rows, without the groups they leave empty: O(groups + rows) per
// attribute, no sorting. Rows and groups keep the store's IDs.
func (s *Store) SelectView(rows []int32) *View {
	v := &View{
		store:    s,
		rows:     rows,
		cols:     s.cols,
		classes:  s.classes,
		groups:   make([][]Group, len(s.attrs)),
		rowGroup: s.rowGroup,
		groupVal: s.groupVal,
	}
	// The counts go to a pooled arena's join counters.
	ar := viewArenas.Get().(*viewArena)
	defer viewArenas.Put(ar)
	for a, base := range s.groups {
		ar.joins = grow(ar.joins, len(base))
		count := ar.joins
		clear(count)
		kept := 0
		rg := s.rowGroup[a]
		for _, r := range rows {
			c := &count[rg[r]]
			if *c == 0 {
				kept++
			}
			*c += 1<<32 | uint64(one(s.classes[r]))
		}
		list := make([]Group, 0, kept)
		for _, g := range base {
			if c := count[g.ID]; c != 0 {
				list = append(list, Group{ID: g.ID, Run: g.Run, N: int32(c >> 32), Ones: int32(uint32(c))})
			}
		}
		v.groups[a] = list
	}
	return v
}

// RepeatView returns the view holding every base row plus the given
// duplicate row references appended in order — the oversampling-with-
// replacement shape. A duplicate belongs to its base row's group, so
// each attribute's group list is the store's with the duplicates
// counted in: O(groups + m) per attribute, no sorting and no value
// copies. The group lists live in a pooled arena that Release returns.
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
		rowGroup: s.rowGroup,
		groupVal: s.groupVal,
		appended: m,
		arena:    ar,
	}
	total := 0
	for _, base := range s.groups {
		total += len(base)
	}
	ar.groupHdr = grow(ar.groupHdr, len(s.attrs))
	ar.groups = grow(ar.groups, total)
	v.groups = ar.groupHdr
	off := 0
	for a, base := range s.groups {
		list := ar.groups[off : off+len(base)]
		off += len(base)
		copy(list, base)
		rg := s.rowGroup[a]
		for _, r := range extra {
			g := &list[rg[r]]
			g.N++
			g.Ones += one(s.classes[r])
		}
		v.groups[a] = list
	}
	return v
}

// InterpolateView returns the view holding every base row plus one
// synthetic row per plan entry, appended in order — the SMOTE shape.
// Each synthetic value is interpolated straight into the view's column
// (see Interpolation); columns, classes and row group IDs are extended
// copies in flat arenas, with no per-row allocation. Each attribute's
// group list is the store's with the synthetic values merged in, in
// O(groups + m): a synthetic equal to its seed's value joins the end of
// the seed's run of == values, and only the others are sorted, by a
// stable radix sort. Within every run the base groups come first, then
// the tied synthetic rows, then the sorted ones of the same value, each
// in row order. Between two store runs, every maximal run of two or
// more sorted synthetic values of class 1 whose order keys are unique
// becomes one stretch (see Group), with an ID of its own after the
// store's. Any other synthetic row bit-identical to the group before
// it joins that group, and otherwise starts a new group, whose ID
// follows the store's. Every array lives in a pooled arena that
// Release returns; the view keeps nothing of plan.
func (s *Store) InterpolateView(plan []Interpolation) *View {
	return s.interpolateView(plan, viewArenas.Get().(*viewArena))
}

// interpolateView builds InterpolateView's view in the given arena.
func (s *Store) interpolateView(plan []Interpolation, ar *viewArena) *View {
	n, m, nAttrs := s.n, len(plan), len(s.attrs)
	ar.rows = grow(ar.rows, n+m)
	ar.colHdr = grow(ar.colHdr, nAttrs)
	ar.colVals = grow(ar.colVals, (n+m)*nAttrs)
	ar.classes = grow(ar.classes, n+m)
	ar.rgHdr = grow(ar.rgHdr, nAttrs)
	ar.rgVals = grow(ar.rgVals, (n+m)*nAttrs)
	ar.groupHdr = grow(ar.groupHdr, nAttrs)
	ar.gvHdr = grow(ar.gvHdr, nAttrs)
	// The group lists take from slabs at least as large as the last
	// extend view built in this arena needed, grown by doubling.
	if c := min(cap(ar.groups), cap(ar.gvVals)); c < ar.want {
		size := max(ar.want, 2*c)
		ar.groups, ar.gvVals = make([]Group, size), make([]float64, size)
	}
	ar.used, ar.want = 0, 0
	rows := ar.rows
	copy(rows, s.identity)
	v := &View{
		store:    s,
		rows:     rows,
		cols:     ar.colHdr,
		classes:  ar.classes,
		groups:   ar.groupHdr,
		rowGroup: ar.rgHdr,
		groupVal: ar.gvHdr,
		appended: m,
		arena:    ar,
	}
	copy(v.classes, s.classes)
	for j, p := range plan {
		rows[n+j] = int32(n + j)
		v.classes[n+j] = s.classes[p.Seed]
	}
	for a := range s.attrs {
		col := ar.colVals[a*(n+m) : (a+1)*(n+m)]
		copy(col, s.cols[a])
		v.cols[a] = col
		rg := ar.rgVals[a*(n+m) : (a+1)*(n+m)]
		copy(rg, s.rowGroup[a])
		v.rowGroup[a] = rg
		gl := ar.mergeSynthetic(v, a, plan)
		v.groups[a], v.groupVal[a] = gl.list, gl.vals
	}
	return v
}

// take returns an empty group list with room for n groups and their
// values, carved from the arena's slabs past the lists the view being
// built already took, or allocated on its own when the slabs are full.
// It adds n to what the arena's next extend view will reserve.
func (ar *viewArena) take(n int) groupList {
	ar.want += n
	if min(cap(ar.groups), cap(ar.gvVals))-ar.used < n {
		return groupList{list: make([]Group, 0, n), vals: make([]float64, 0, n)}
	}
	lo, hi := ar.used, ar.used+n
	ar.used = hi
	return groupList{list: ar.groups[lo:lo:hi], vals: ar.gvVals[lo:lo:hi]}
}

// groupList is the group list and group values of one attribute of an
// extend view, as mergeSynthetic appends to them.
type groupList struct {
	list []Group
	vals []float64
	// nextRun labels the next run of synthetic values no store run
	// holds, and nextStretch the next stretch.
	nextRun, nextStretch int32
}

// add appends one row of value x and class c in ascending order: into
// the last group when it holds the same bits, else into a new group,
// of the last group's run when x == its value. It returns the row's
// group ID.
func (gl *groupList) add(x float64, c int) int32 {
	k := len(gl.list)
	if k > 0 && math.Float64bits(gl.vals[gl.list[k-1].ID]) == math.Float64bits(x) {
		g := &gl.list[k-1]
		g.N++
		g.Ones += one(c)
		return g.ID
	}
	run := gl.nextRun
	if k > 0 && gl.vals[gl.list[k-1].ID] == x {
		run = gl.list[k-1].Run
	} else {
		gl.nextRun++
	}
	id := int32(len(gl.vals))
	gl.vals = append(gl.vals, x)
	gl.list = append(gl.list, Group{ID: id, Run: run, N: 1, Ones: one(c)})
	return id
}

// addRun places rows, all zeros, in order, as add would one by one: a
// row extends the last group while the bits repeat.
func (gl *groupList) addRun(rows []int32, col []float64, rg []int32, classes []int) {
	for i := 0; i < len(rows); {
		r := rows[i]
		id := gl.add(col[r], classes[r])
		rg[r] = id
		g, bits := &gl.list[len(gl.list)-1], math.Float64bits(col[r])
		for i++; i < len(rows) && math.Float64bits(col[rows[i]]) == bits; i++ {
			r := rows[i]
			rg[r] = id
			g.N++
			g.Ones += one(classes[r])
		}
	}
}

// addGap places sorted synthetic rows whose values lie strictly between
// two store runs. Every maximal stretch of two or more of them that are
// class 1 and whose order keys are unique, no key == its neighbours',
// becomes one stretch entry; the others go in one by one, as add places
// them. A value after a stretch is above all of its values, and the NaN
// in the stretch's value slot equals nothing, so add starts a new run
// for it.
func (gl *groupList) addGap(keys []rowKey, col []float64, rg []int32, classes []int) {
	unique := func(i int) bool {
		return classes[keys[i].row] == 1 &&
			(i == 0 || keys[i-1].key != keys[i].key) &&
			(i+1 == len(keys) || keys[i+1].key != keys[i].key)
	}
	for i := 0; i < len(keys); {
		e := i
		for e < len(keys) && unique(e) {
			e++
		}
		if e-i < 2 {
			r := keys[i].row
			rg[r] = gl.add(col[r], classes[r])
			i++
			continue
		}
		gl.nextStretch--
		id := int32(len(gl.vals))
		gl.vals = append(gl.vals, math.NaN())
		gl.list = append(gl.list, Group{ID: id, Run: gl.nextStretch, N: int32(e - i), Ones: int32(e - i)})
		for ; i < e; i++ {
			rg[keys[i].row] = id
		}
	}
}

// mergeSynthetic interpolates attribute a of the plan's synthetic rows
// into v's column (rows n..) and returns the attribute's group list and
// group values of v: the store's list with those rows merged in. It
// writes the synthetic rows' group IDs into v's rowGroup.
//
// A synthetic value equal to its seed's belongs at the end of the
// seed's run. Unless it is a zero, that run is one group, the seed's,
// which the row simply joins: its count goes to joins. Zeros, whose run
// may end in a group of the other sign, are placed after the zero run's
// base groups, in row order. The other values are radix-sorted and
// placed as the merge reaches them: those == a store run's value after
// that run's rows, and those between two store runs by addGap, which
// gathers runs of distinct class-1 values into stretches.
func (ar *viewArena) mergeSynthetic(v *View, a int, plan []Interpolation) groupList {
	s := v.store
	n := s.n
	base := s.groups[a]
	col, rg, classes := v.cols[a], v.rowGroup[a], v.classes
	ar.joins = grow(ar.joins, len(base))
	joins := ar.joins
	clear(joins)
	tied, keys := ar.tied[:0], ar.keys[:0]
	src, storeRG := s.cols[a], s.rowGroup[a]
	for j, p := range plan {
		r := int32(n + j)
		sv := src[p.Seed]
		x := interpolate(sv, src[p.Neighbor], p.Q)
		col[r] = x
		switch {
		case x != sv:
			keys = append(keys, rowKey{key: orderKey(x), row: r})
		case x != 0:
			id := storeRG[p.Seed]
			rg[r] = id
			joins[id] += 1<<32 | uint64(one(classes[r]))
		default:
			tied = append(tied, r)
		}
	}
	// Keep what the appends grew for the next attribute; the sort's
	// buffer need only hold this attribute's keys.
	ar.tied, ar.keys = tied, keys
	ar.keys2 = grow(ar.keys2, len(keys))
	keys = radixSort(keys, ar.keys2)
	gl := ar.take(len(base) + len(tied) + len(keys))
	gl.vals = append(gl.vals, s.groupVal[a]...)
	if len(base) > 0 {
		gl.nextRun = base[len(base)-1].Run + 1
	}
	u := 0
	for i := 0; i < len(base); {
		run := base[i].Run
		x := gl.vals[base[i].ID]
		bk := orderKey(x)
		e := u
		for e < len(keys) && keys[e].key < bk {
			e++
		}
		gl.addGap(keys[u:e], col, rg, classes)
		u = e
		for ; i < len(base) && base[i].Run == run; i++ {
			g := base[i]
			if c := joins[g.ID]; c != 0 {
				g.N += int32(c >> 32)
				g.Ones += int32(uint32(c))
			}
			gl.list = append(gl.list, g)
		}
		if x == 0 {
			gl.addRun(tied, col, rg, classes)
		}
		for ; u < len(keys) && keys[u].key == bk; u++ {
			rg[keys[u].row] = gl.add(col[keys[u].row], classes[keys[u].row])
		}
	}
	gl.addGap(keys[u:], col, rg, classes)
	return gl
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

// Groups returns every attribute's group list: ascending, each entry
// with its row and class-1 counts in the view, none empty (shared;
// read-only). An entry with a negative Run is a stretch of distinct
// class-1 values, not a group: its GroupValues slot holds NaN, and the
// value of its last row in a node must be found among the rows that map
// to it (see Group).
func (v *View) Groups() [][]Group { return v.groups }

// RowGroups returns, per attribute, every row id's group ID (shared;
// read-only). Only the ids in Rows are meaningful.
func (v *View) RowGroups() [][]int32 { return v.rowGroup }

// GroupValues returns, per attribute, every group ID's value, NaN for
// a stretch (shared; read-only).
func (v *View) GroupValues() [][]float64 { return v.groupVal }

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
