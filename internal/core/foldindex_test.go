package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining/eval"
	"edem/internal/mining/sampling"
	"edem/internal/stats"
)

// TestFoldIndexesMatchPerFold holds the shared neighbour search to the
// per-fold searches it replaces: on one dataset of each target at two
// scales and four seeds, every fold that shares the whole dataset's
// spans must derive exactly the lists BuildViewIndex searches for its
// store, and the whole index must be BuildViewIndex's for the whole
// store. KV-A2 has folds with spans of their own, so both routes run.
func TestFoldIndexesMatchPerFold(t *testing.T) {
	const maxK = 15
	own := map[string]int{}
	for _, id := range []string{"MG-B1", "KV-A2", "FG-A2", "7Z-B2"} {
		for _, scale := range []int{2, 4} {
			for seed := uint64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("%s scale %d seed %d", id, scale, seed)
				opts := DefaultOptions()
				opts.Seed, opts.TestCases, opts.BitStride = seed, scale, 4
				d, _, err := BuildDataset(context.Background(), id, opts)
				if err != nil {
					t.Fatal(err)
				}
				folds, err := dataset.StratifiedKFold(d, opts.folds(), stats.NewRNG(opts.Seed))
				if err != nil {
					t.Fatal(err)
				}
				whole := dataset.NewStore(d, nil)
				si, err := sampling.BuildSharedIndex(whole, eval.PositiveClass, maxK)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sampling.BuildViewIndex(whole, eval.PositiveClass, maxK)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(si.Whole(), want) {
					t.Fatalf("%s: the whole index differs from BuildViewIndex's", name)
				}
				for fi, f := range folds {
					st := dataset.NewStore(d, f.Train)
					if !si.Shares(st) {
						own[id]++
						continue
					}
					got, _, err := si.FoldIndex(st, f.Train)
					if err != nil {
						t.Fatal(err)
					}
					want, err := sampling.BuildViewIndex(st, eval.PositiveClass, maxK)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s fold %d: derived lists differ from BuildViewIndex's", name, fi)
					}
				}
			}
		}
	}
	if own["KV-A2"] == 0 {
		t.Fatalf("folds with their own spans %v: KV-A2 must have some", own)
	}
	t.Logf("folds with their own spans: %v", own)
}
