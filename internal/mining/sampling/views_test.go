package sampling

import (
	"math"
	"slices"
	"testing"

	"edem/internal/dataset"
	"edem/internal/stats"
)

func imbalancedDataset(n int, seed uint64) *dataset.Dataset {
	attrs := []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("mode"),
		dataset.NumericAttr("y"),
	}
	d := dataset.New("views-test", attrs, []string{"nonfailure", "failure"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		class := 0
		if rng.Float64() < 0.12 {
			class = 1
		}
		d.MustAdd(dataset.Instance{
			Values: []float64{rng.Float64() * 100, float64(rng.Intn(2)), rng.Float64() * 10},
			Class:  class,
			Weight: 1,
		})
	}
	return d
}

// datasetsEqual compares two datasets instance by instance, value by
// value — byte-identical order included.
func datasetsEqual(t *testing.T, label string, want, got *dataset.Dataset) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d instances, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Instances {
		a, b := want.Instances[i], got.Instances[i]
		if a.Class != b.Class {
			t.Fatalf("%s: instance %d class %d, want %d", label, i, b.Class, a.Class)
		}
		if a.Weight != b.Weight {
			t.Fatalf("%s: instance %d weight %v, want %v", label, i, b.Weight, a.Weight)
		}
		for j := range a.Values {
			if av, bv := a.Values[j], b.Values[j]; av != bv {
				t.Fatalf("%s: instance %d attr %d: %v, want %v", label, i, j, bv, av)
			}
		}
	}
}

// Each view must reproduce the instance-major oracle exactly: same RNG
// stream, same instance order, same values. Materialising the view and
// comparing against the oracle pins all three.
func TestUndersampleViewMatchesDataset(t *testing.T) {
	d := imbalancedDataset(200, 1)
	st := dataset.NewStore(d, nil)
	for _, pct := range []float64{5, 35, 65, 100} {
		want, err := undersampleOracle(d, 0, pct, stats.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		v, err := UndersampleView(st, 0, pct, stats.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		datasetsEqual(t, "undersample", want, v.Materialize())
	}
}

func TestOversampleViewMatchesDataset(t *testing.T) {
	d := imbalancedDataset(200, 2)
	st := dataset.NewStore(d, nil)
	for _, pct := range []float64{40, 100, 300, 1500} {
		want, err := oversampleOracle(d, 1, pct, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		v, err := OversampleView(st, 1, pct, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		datasetsEqual(t, "oversample", want, v.Materialize())
	}
}

func TestSMOTEViewMatchesDataset(t *testing.T) {
	d := imbalancedDataset(200, 3)
	st := dataset.NewStore(d, nil)
	for _, pct := range []float64{40, 100, 300} {
		for _, k := range []int{1, 5} {
			want, err := smoteOracle(d, 1, pct, k, stats.NewRNG(99))
			if err != nil {
				t.Fatal(err)
			}
			v, err := smote(st, 1, pct, k, stats.NewRNG(99))
			if err != nil {
				t.Fatal(err)
			}
			datasetsEqual(t, "smote", want, v.Materialize())
		}
	}
}

// The store-backed index must agree with the oracle both on neighbour
// lists and on the generated views: a k-prefix of the cached maxK
// lists is the k-neighbour search.
func TestViewIndexMatchesNeighborIndex(t *testing.T) {
	d := imbalancedDataset(150, 4)
	st := dataset.NewStore(d, nil)
	vi, err := BuildViewIndex(st, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := neighborsOracle(d, vi.minIdx, 7)
	if len(want) != len(vi.lists) {
		t.Fatalf("list counts diverge: %d vs %d", len(want), len(vi.lists))
	}
	for i := range want {
		if len(want[i]) != len(vi.lists[i]) {
			t.Fatalf("minority %d: list lengths diverge", i)
		}
		for j := range want[i] {
			if want[i][j] != vi.lists[i][j] {
				t.Fatalf("minority %d neighbour %d: %d vs %d", i, j, want[i][j], vi.lists[i][j])
			}
		}
	}

	for _, k := range []int{1, 7} {
		want, err := smoteOracle(d, 1, 300, k, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		v, err := vi.SMOTEView(300, k, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		datasetsEqual(t, "index smote", want, v.Materialize())
	}
	wantO, err := oversampleOracle(d, 1, 500, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	v, err := vi.OversampleView(500, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, "index oversample", wantO, v.Materialize())
}

// Single-member minority degenerates SMOTE to replacement copies; the
// view path must produce a repeat view with the same rows.
func TestSMOTEViewSingleMinority(t *testing.T) {
	d := imbalancedDataset(40, 5)
	for i := range d.Instances {
		d.Instances[i].Class = 0
	}
	d.Instances[3].Class = 1
	st := dataset.NewStore(d, nil)
	want, err := smoteOracle(d, 1, 300, 5, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	v, err := smote(st, 1, 300, 5, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, "single minority", want, v.Materialize())
}

func TestViewErrorsMatchDataset(t *testing.T) {
	d := imbalancedDataset(50, 6)
	st := dataset.NewStore(d, nil)
	if _, err := UndersampleView(st, 0, 0, stats.NewRNG(1)); err == nil {
		t.Fatal("keep 0% accepted")
	}
	if _, err := UndersampleView(st, 9, 50, stats.NewRNG(1)); err == nil {
		t.Fatal("out-of-range class accepted")
	}
	if _, err := OversampleView(st, 1, -5, stats.NewRNG(1)); err == nil {
		t.Fatal("negative percent accepted")
	}
	if _, err := smote(st, 1, 100, 0, stats.NewRNG(1)); err != ErrBadK {
		t.Fatal("k=0 accepted")
	}
	onlyMaj := imbalancedDataset(30, 7)
	for i := range onlyMaj.Instances {
		onlyMaj.Instances[i].Class = 0
	}
	if _, err := OversampleView(dataset.NewStore(onlyMaj, nil), 1, 100, stats.NewRNG(1)); err != ErrNoMinority {
		t.Fatalf("empty minority: %v, want ErrNoMinority", err)
	}
}

// TestSMOTEInterpolationAcrossClampsKeepsSeed: on a column holding both
// ±1e308 clamps, nv-sv overflows to ±Inf, and q = 0 would give
// 0·Inf = NaN. That coordinate takes the seed's value instead, while a
// q > 0 interpolation across the clamps stays +Inf; the view's group
// lists place both.
func TestSMOTEInterpolationAcrossClampsKeepsSeed(t *testing.T) {
	d := dataset.New("clamps", []dataset.Attribute{dataset.NumericAttr("x"), dataset.NumericAttr("y")}, []string{"neg", "pos"})
	for i, vs := range [][]float64{{0, 0}, {1e308, 1}, {-1e308, 2}} {
		d.MustAdd(dataset.Instance{Values: vs, Class: min(i, 1), Weight: 1})
	}
	st := dataset.NewStore(d, nil)
	v := st.InterpolateView([]dataset.Interpolation{
		{Seed: 1, Neighbor: 2, Q: 0},   // from +1e308 towards -1e308
		{Seed: 2, Neighbor: 1, Q: 0.5}, // from -1e308 towards +1e308
	})
	defer v.Release()
	x, y := v.Cols()[0], v.Cols()[1]
	if x[3] != 1e308 || y[3] != 1 {
		t.Fatalf("q = 0 synthetic (%v, %v), want the seed's (1e308, 1)", x[3], y[3])
	}
	if !math.IsInf(x[4], 1) || y[4] != 1.5 {
		t.Fatalf("q = 0.5 synthetic (%v, %v), want (+Inf, 1.5)", x[4], y[4])
	}
	// x's groups: -1e308, 0, then 1e308 holding its seed row 1 and the
	// q = 0 synthetic row 3, then +Inf.
	rg, vals := v.RowGroups()[0], v.GroupValues()[0]
	var got []float64
	var rows []int32
	for _, g := range v.Groups()[0] {
		got = append(got, vals[g.ID])
		rows = append(rows, g.N)
	}
	if want := []float64{-1e308, 0, 1e308, math.Inf(1)}; !slices.Equal(got, want) || !slices.Equal(rows, []int32{1, 1, 2, 1}) {
		t.Fatalf("x groups %v of %v rows, want %v of [1 1 2 1]", got, rows, want)
	}
	if rg[3] != rg[1] || vals[rg[4]] != math.Inf(1) {
		t.Fatalf("x group IDs %v: row 3 must share row 1's group, row 4 be +Inf's", rg[:5])
	}
}
