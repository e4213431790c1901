package sampling

import (
	"encoding/binary"
	"math"
	"reflect"
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

// matchOracle requires the kernel's lists to equal the sort-based
// oracle's, and returns them.
func matchOracle(t *testing.T, d *dataset.Dataset, k int) [][]int {
	t.Helper()
	st := dataset.NewStore(d, nil)
	minIdx, err := storeMinority(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := nearestNeighborsAt(st, minIdx, k)
	want := neighborsOracle(d, minIdx, k)
	if !reflect.DeepEqual(got, want) {
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
