package dataset

import (
	"testing"
	"testing/quick"

	"edem/internal/stats"
)

func TestStratifiedKFoldPartition(t *testing.T) {
	d := sampleDataset(t, 100)
	folds, err := StratifiedKFold(d, 10, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 10 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := make([]int, d.Len())
	for _, f := range folds {
		for _, i := range f.Test {
			seen[i]++
		}
		if len(f.Train)+len(f.Test) != d.Len() {
			t.Fatalf("train+test = %d, want %d", len(f.Train)+len(f.Test), d.Len())
		}
		inTest := map[int]bool{}
		for _, i := range f.Test {
			inTest[i] = true
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Fatal("instance in both train and test")
			}
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("instance %d appears in %d test sets", i, n)
		}
	}
}

func TestStratifiedKFoldStratification(t *testing.T) {
	d := sampleDataset(t, 100) // 20 positives
	folds, err := StratifiedKFold(d, 10, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range folds {
		pos := 0
		for _, i := range f.Test {
			if d.Instances[i].Class == 1 {
				pos++
			}
		}
		if pos != 2 {
			t.Errorf("fold %d has %d positives in test, want 2", fi, pos)
		}
	}
}

func TestStratifiedKFoldErrors(t *testing.T) {
	d := sampleDataset(t, 5)
	if _, err := StratifiedKFold(d, 1, stats.NewRNG(1)); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := StratifiedKFold(d, 6, stats.NewRNG(1)); err == nil {
		t.Error("k > n should fail")
	}
}

func TestStratifiedKFoldDeterminism(t *testing.T) {
	d := sampleDataset(t, 60)
	f1, _ := StratifiedKFold(d, 5, stats.NewRNG(77))
	f2, _ := StratifiedKFold(d, 5, stats.NewRNG(77))
	for i := range f1 {
		if len(f1[i].Test) != len(f2[i].Test) {
			t.Fatal("same-seed folds differ")
		}
		for j := range f1[i].Test {
			if f1[i].Test[j] != f2[i].Test[j] {
				t.Fatal("same-seed folds differ")
			}
		}
	}
}

func TestStratifiedKFoldProperty(t *testing.T) {
	// For arbitrary dataset sizes and fold counts, the partition
	// property must hold.
	f := func(nRaw, kRaw uint8, seed uint64) bool {
		n := int(nRaw%200) + 20
		k := int(kRaw%8) + 2
		d := New("p", []Attribute{NumericAttr("x")}, []string{"a", "b"})
		rng := stats.NewRNG(seed)
		for i := 0; i < n; i++ {
			d.MustAdd(Instance{Values: []float64{rng.Float64()}, Class: rng.Intn(2), Weight: 1})
		}
		folds, err := StratifiedKFold(d, k, rng)
		if err != nil {
			return false
		}
		total := 0
		for _, fd := range folds {
			total += len(fd.Test)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
