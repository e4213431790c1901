package sampling

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"edem/internal/dataset"
)

// neighborDataset builds a dataset of one minority (class 1) row per
// entry of rows, after a majority row repeating the first. The repeat
// keeps the minority rows' column spans.
func neighborDataset(rows [][]float64) *dataset.Dataset {
	attrs := make([]dataset.Attribute, len(rows[0]))
	for a := range attrs {
		attrs[a] = dataset.NumericAttr("x")
	}
	d := dataset.New("nn", attrs, []string{"neg", "pos"})
	d.MustAdd(dataset.Instance{Values: rows[0], Class: 0, Weight: 1})
	for _, r := range rows {
		d.MustAdd(dataset.Instance{Values: r, Class: 1, Weight: 1})
	}
	return d
}

// matchOracle requires the lists of a k-neighbour index to equal the
// sort-based oracle's (an empty list equal to a nil one), and returns
// them.
func matchOracle(t *testing.T, d *dataset.Dataset, k int) [][]int {
	t.Helper()
	ni, err := BuildViewIndex(dataset.NewStore(d, nil), 1, k)
	if err != nil {
		t.Fatal(err)
	}
	got := ni.lists
	want := neighborsOracle(d, ni.minIdx, k)
	if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
		t.Fatalf("k=%d: kernel %v, oracle %v", k, got, want)
	}
	return got
}

func TestNearestNeighborsMatchOracle(t *testing.T) {
	cases := []struct {
		name string
		rows [][]float64
	}{
		{"duplicate rows", [][]float64{
			{1, 2}, {1, 2}, {3, 4}, {1, 2}, {3, 4}, {0, 0}, {1, 2},
		}},
		{"zero span", [][]float64{
			{5, 1, 7}, {5, 2, 7}, {5, 4, 7}, {5, 8, 7},
		}},
		{"opposite 1e308 clamps", [][]float64{
			{1e308, 1}, {-1e308, 2}, {1e308, 3}, {-1e308, 1}, {0, 2}, {1e308, 2},
		}},
		{"squares near the subnormal range", [][]float64{
			{1e308}, {0}, {1e146}, {2e146}, {1.5e146}, {2.8e145}, {3e145}, {1}, {0},
		}},
		{"one minority row", [][]float64{{1}}},
		{"two minority rows", [][]float64{{1, 0}, {2, 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := neighborDataset(c.rows)
			for _, k := range []int{1, 2, 3, len(c.rows) - 1, len(c.rows), len(c.rows) + 5} {
				if k >= 1 {
					matchOracle(t, d, k)
				}
			}
		})
	}
}

// A column holding both ±1e308 clamps has an infinite span, so a pair
// at opposite clamps is NaN apart. NaN ranks after every number, and
// NaN ties break by row index.
func TestNearestNeighborsNaNLast(t *testing.T) {
	d := neighborDataset([][]float64{
		{1e308, 0}, {-1e308, 0}, {1e308, 1}, {-1e308, 1}, {1e308, 0.5},
	})
	got := matchOracle(t, d, 4)
	// Rows are offset by the majority row at index 0.
	want := [][]int{
		{5, 3, 2, 4}, // row 1: rows 5 (0.5 apart) and 3 (1 apart), then NaN
		{4, 1, 3, 5}, // row 2: only row 4 is a number away
		{5, 1, 2, 4},
		{2, 1, 3, 5},
		{1, 3, 2, 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lists %v, want %v", got, want)
	}
}

// FuzzNeighborIndex builds a small store from fuzzed float64 bit
// patterns (a NaN pattern becomes the infinity of its sign, since the
// training domain has no NaN; infinities and subnormals pass through)
// and requires the kernel to match the oracle. shape picks the
// attribute count, 1 to 4.
func FuzzNeighborIndex(f *testing.F) {
	row := func(vs ...float64) []byte {
		b := []byte{1}
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	var clamps []byte
	for _, v := range []float64{1e308, -1e308, 1e308, 0, -1e308} {
		clamps = append(clamps, row(v, 2)...)
	}
	f.Add(uint8(1), uint8(3), clamps)
	f.Add(uint8(0x21), uint8(2), append(row(1, 1), row(1, math.NaN())...))
	f.Add(uint8(0), uint8(14), append(row(math.Inf(1)), row(math.Inf(1))...))
	// Three columns, only the middle one holding both ±1e308 clamps.
	var mixed []byte
	for i, v := range []float64{1e308, -1e308, 0, 1e308, -1e308, 3} {
		mixed = append(mixed, row(float64(i%3), v, 0.25*float64(i))...)
	}
	f.Add(uint8(2), uint8(4), mixed)

	f.Fuzz(func(t *testing.T, shape, k uint8, raw []byte) {
		na := 1 + int(shape%4)
		var rows [][]float64
		for width := 1 + 8*na; len(raw) >= width && len(rows) < 64; raw = raw[width:] {
			if raw[0]&1 == 0 {
				continue // a majority row: left out
			}
			vs := make([]float64, na)
			for a := range vs {
				bits := binary.LittleEndian.Uint64(raw[1+8*a:])
				vs[a] = math.Float64frombits(bits)
				if math.IsNaN(vs[a]) {
					vs[a] = math.Inf(1 - 2*int(bits>>63))
				}
			}
			rows = append(rows, vs)
		}
		if len(rows) == 0 {
			return
		}
		matchOracle(t, neighborDataset(rows), 1+int(k%16))
	})
}

// checkFoldIndexes splits d's rows into folds by foldOf and requires,
// for every fold whose training store shares the whole store's spans,
// the lists the shared search (lists maxK + slack deep) derives to equal
// BuildViewIndex's for that store, and the whole index to equal
// BuildViewIndex's for the whole store. It returns how many folds
// shared and how many rows they rescanned.
func checkFoldIndexes(t *testing.T, d *dataset.Dataset, foldOf []int, maxK, slack int) (shared, rescans int) {
	t.Helper()
	whole := dataset.NewStore(d, nil)
	si, err := buildSharedIndex(whole, 1, maxK, slack)
	if err != nil {
		return 0, 0
	}
	if want, _ := BuildViewIndex(whole, 1, maxK); !reflect.DeepEqual(si.Whole(), want) {
		t.Fatalf("whole index %v, BuildViewIndex %v", si.Whole().lists, want.lists)
	}
	folds := 0
	for _, f := range foldOf {
		folds = max(folds, f+1)
	}
	for f := 0; f < folds; f++ {
		train := []int{} // not nil, which NewStore reads as every row
		for i, g := range foldOf {
			if g != f {
				train = append(train, i)
			}
		}
		st := dataset.NewStore(d, train)
		if !si.Shares(st) {
			continue
		}
		shared++
		want, wantErr := BuildViewIndex(st, 1, maxK)
		got, n, err := si.FoldIndex(st, train)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("fold %d: error %v, BuildViewIndex's %v", f, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("fold %d: derived lists %v, BuildViewIndex %v", f, got.lists, want.lists)
		}
		rescans += n
	}
	return shared, rescans
}

// TestFoldIndexesRescan runs the shared search without slack, so every
// row that loses a neighbour to its held-out fold is rescanned, on rows
// with duplicates and both ±1e308 clamps in one column, where a fold
// holding out the only -1e308 row has spans of its own.
func TestFoldIndexesRescan(t *testing.T) {
	rows := [][]float64{
		{1e308, 1}, {-1e308, 2}, {1e308, 1}, {0, 2}, {1, 1}, {1, 1},
		{2, 0}, {3, 1}, {1e308, 3}, {0.5, 2}, {2, 3}, {1, 1},
	}
	foldOf := []int{0, 0, 1, 2, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	d := neighborDataset(rows)
	for _, maxK := range []int{1, 3, 5} {
		shared, rescans := checkFoldIndexes(t, d, foldOf, maxK, 0)
		if shared != 2 || rescans == 0 {
			t.Fatalf("maxK %d: %d folds shared, %d rescans; want 2 and some", maxK, shared, rescans)
		}
	}
}

// FuzzFoldIndexes holds the shared search, without slack (so rescans
// happen), to BuildViewIndex on every fold that shares its spans, over
// rows drawn from a pool of duplicates, both ±1e308 clamps and ±Inf
// (so spans are infinite or NaN), or from the bytes. shape picks the
// attribute count (1 to 3) and the fold count (2 to 5); each row takes
// one byte per attribute and one for its class and fold.
func FuzzFoldIndexes(f *testing.F) {
	f.Add(uint8(0x11), uint8(3), []byte{2, 0x11, 3, 0x12, 2, 0x03, 4, 0x10, 5, 0x11, 3, 0x13, 2, 0x01})
	// Both clamps in one column, a duplicate-heavy one beside it.
	f.Add(uint8(0x21), uint8(4), []byte{6, 1, 0x11, 7, 1, 0x12, 6, 2, 0x10, 0, 1, 0x11, 7, 2, 0x13, 6, 1, 0x12, 3, 3, 0x10})
	// One infinity throughout a column: a NaN span.
	f.Add(uint8(0x12), uint8(2), []byte{8, 1, 0x10, 8, 2, 0x11, 8, 3, 0x12, 8, 1, 0x10, 8, 4, 0x11})
	// Both infinities in a column: an infinite span.
	f.Add(uint8(0x31), uint8(5), []byte{8, 0x10, 9, 0x11, 1, 0x12, 2, 0x13, 8, 0x10, 3, 0x11, 9, 0x12})
	pool := []float64{0, 1, 1, 2, 0.5, math.Copysign(0, -1), 1e308, -1e308, math.Inf(1), math.Inf(-1)}
	f.Fuzz(func(t *testing.T, shape, k uint8, raw []byte) {
		na, folds := 1+int(shape%4)%3, 2+int(shape>>4)%4
		attrs := make([]dataset.Attribute, na)
		for a := range attrs {
			attrs[a] = dataset.NumericAttr("x")
		}
		d := dataset.New("folds", attrs, []string{"neg", "pos"})
		var foldOf []int
		for ; len(raw) >= na+1 && d.Len() < 48; raw = raw[na+1:] {
			vs := make([]float64, na)
			for a := range vs {
				if b := raw[a]; b >= 128 {
					vs[a] = float64(b-128) / 8
				} else {
					vs[a] = pool[int(b)%len(pool)]
				}
			}
			d.MustAdd(dataset.Instance{Values: vs, Class: int(raw[na]>>4) & 1, Weight: 1})
			foldOf = append(foldOf, int(raw[na]&0x0f)%folds)
		}
		if d.Len() == 0 {
			return
		}
		checkFoldIndexes(t, d, foldOf, 1+int(k%16), 0)
	})
}
