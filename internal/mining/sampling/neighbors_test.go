package sampling

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"edem/internal/dataset"
)

// neighborDataset builds a dataset of one minority (class 1) row per
// entry of rows, after a majority row repeating the first, over
// numeric attributes except where nominal marks one. The repeat keeps
// the minority rows' column spans.
func neighborDataset(nominal []bool, rows [][]float64) *dataset.Dataset {
	attrs := make([]dataset.Attribute, len(nominal))
	for a, nom := range nominal {
		if nom {
			attrs[a] = dataset.NominalAttr("n", "a", "b", "c")
		} else {
			attrs[a] = dataset.NumericAttr("x")
		}
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
	nan := math.NaN()
	cases := []struct {
		name    string
		nominal []bool
		rows    [][]float64
	}{
		{"duplicate rows", []bool{false, false}, [][]float64{
			{1, 2}, {1, 2}, {3, 4}, {1, 2}, {3, 4}, {0, 0}, {1, 2},
		}},
		{"zero span", []bool{false, false, false}, [][]float64{
			{5, 1, 7}, {5, 2, 7}, {5, 4, 7}, {5, 8, 7},
		}},
		{"nominal", []bool{true, false, true}, [][]float64{
			{0, 0.5, 2}, {1, 0.5, 2}, {0, 0.7, 1}, {2, 0.1, 0}, {1, 0.9, 2},
		}},
		{"missing", []bool{false, true, false}, [][]float64{
			{nan, 0, 1}, {1, nan, 1}, {2, 1, nan}, {nan, nan, nan}, {3, 2, 4}, {3, 2, 4},
		}},
		{"missing in a zero-span column", []bool{false, false}, [][]float64{
			{1, 9}, {nan, 9}, {2, 9}, {3, nan},
		}},
		{"opposite 1e308 clamps", []bool{false, false}, [][]float64{
			{1e308, 1}, {-1e308, 2}, {1e308, 3}, {-1e308, 1}, {0, 2}, {1e308, 2},
		}},
		{"squares near the subnormal range", []bool{false}, [][]float64{
			{1e308}, {0}, {1e146}, {2e146}, {1.5e146}, {2.8e145}, {3e145}, {1}, {0},
		}},
		{"one minority row", []bool{false}, [][]float64{{1}}},
		{"two minority rows", []bool{false, true}, [][]float64{{1, 0}, {2, 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := neighborDataset(c.nominal, c.rows)
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
	d := neighborDataset([]bool{false, false}, [][]float64{
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
// patterns (NaN is a missing value; infinities and subnormals pass
// through) and requires the kernel to match the oracle.
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

	f.Fuzz(func(t *testing.T, shape, k uint8, raw []byte) {
		na := 1 + int(shape%4)
		nominal := make([]bool, na)
		for a := range nominal {
			nominal[a] = shape>>(4+a)&1 == 1
		}
		var rows [][]float64
		for width := 1 + 8*na; len(raw) >= width && len(rows) < 64; raw = raw[width:] {
			if raw[0]&1 == 0 {
				continue // a majority row: left out
			}
			vs := make([]float64, na)
			for a := range vs {
				bits := binary.LittleEndian.Uint64(raw[1+8*a:])
				vs[a] = math.Float64frombits(bits)
				if nominal[a] && !dataset.IsMissing(vs[a]) {
					vs[a] = float64(bits % 3)
				}
			}
			rows = append(rows, vs)
		}
		if len(rows) == 0 {
			return
		}
		matchOracle(t, neighborDataset(nominal, rows), 1+int(k%16))
	})
}
