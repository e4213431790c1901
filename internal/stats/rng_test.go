package stats

import "testing"

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %v", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("value %d never drawn in 10000 tries", v)
		}
	}
}

func TestRNGIntnPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGShufflePreservesMultiset(t *testing.T) {
	r := NewRNG(13)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: %v", xs)
	}
}

func TestRNGUniformity(t *testing.T) {
	// Chi-squared-ish sanity: 16 buckets over 64k draws should each hold
	// roughly 4096 +- 10%.
	r := NewRNG(99)
	buckets := make([]int, 16)
	const draws = 1 << 16
	for i := 0; i < draws; i++ {
		buckets[r.Uint64()>>60]++
	}
	want := draws / 16
	for b, n := range buckets {
		if n < want*9/10 || n > want*11/10 {
			t.Errorf("bucket %d has %d draws, want ~%d", b, n, want)
		}
	}
}
