package sevenzip

import (
	"fmt"
	"slices"
	"testing"

	"edem/internal/propane"
)

// digestTarget is small enough to visit every snapshot position.
var digestTarget = System{FilesPerCase: 3, MeanFileSize: 256}

// moduleRefs returns st's VarRefs for one module, in ModuleInfo order.
func moduleRefs(st propane.State, module string) []propane.VarRef {
	fh, dec := st.(*runState).refs()
	if module == ModuleFHandle {
		return fh
	}
	return dec
}

// forEachFlip calls fn with a snapshot at every position of two test
// cases, once per sampled bit of every variable, after flipping that
// bit in a clone of the snapshot.
func forEachFlip(t *testing.T, fn func(tc propane.TestCase, base, flipped propane.State, v propane.VarRef, bit int)) {
	for _, tc := range digestTarget.TestCases(2, 5) {
		for _, m := range digestTarget.Modules() {
			for _, at := range []propane.Location{propane.Entry, propane.Exit} {
				for act := 1; act <= digestTarget.filesPerCase(); act++ {
					base, ok, err := digestTarget.Snapshot(tc, m.Name, at, act)
					if err != nil || !ok {
						t.Fatalf("Snapshot(%s,%v,%d): ok=%v err=%v", m.Name, at, act, ok, err)
					}
					for i, v := range m.Vars {
						for _, bit := range propane.BitPlan(v.Kind, 1) {
							flipped := base.Clone()
							ref := moduleRefs(flipped, m.Name)[i]
							if err := ref.FlipBit(bit); err != nil {
								t.Fatal(err)
							}
							fn(tc, base, flipped, ref, bit)
						}
					}
				}
			}
		}
	}
}

// TestDigestCoversVariables: flipping any bit of an instrumented
// variable in a snapshot changes Digest exactly when the variable is
// not one of digestOmits' write-only statistics.
func TestDigestCoversVariables(t *testing.T) {
	var names []string
	for _, m := range digestTarget.Modules() {
		for _, v := range m.Vars {
			names = append(names, v.Name)
		}
	}
	for _, name := range digestOmits {
		if !slices.Contains(names, name) {
			t.Fatalf("digestOmits names %q, no instrumented variable", name)
		}
	}
	forEachFlip(t, func(_ propane.TestCase, base, flipped propane.State, v propane.VarRef, bit int) {
		covered := !slices.Contains(digestOmits, v.Name)
		if changed := flipped.Digest() != base.Digest(); changed != covered {
			t.Fatalf("flipping bit %d of %s: digest changed %v, want %v", bit, v.Name, changed, covered)
		}
	})
}

// TestOmittedStatisticsDead: a run resumed fault-free from a snapshot
// with any bit of a digestOmits statistic flipped ends in the golden
// outcome, with no error and no panic.
func TestOmittedStatisticsDead(t *testing.T) {
	golden := map[int]any{}
	for _, tc := range digestTarget.TestCases(2, 5) {
		out, err := propane.RunGolden(digestTarget, tc)
		if err != nil {
			t.Fatal(err)
		}
		golden[tc.ID] = out
	}
	forEachFlip(t, func(tc propane.TestCase, _, flipped propane.State, v propane.VarRef, bit int) {
		if !slices.Contains(digestOmits, v.Name) {
			return
		}
		out, err := runFrom(flipped)
		if err != nil || digestTarget.Failed(tc, golden[tc.ID], out) {
			t.Fatalf("flipping bit %d of %s in test case %d: output %+v, error %v; golden %+v", bit, v.Name, tc.ID, out, err, golden[tc.ID])
		}
	})
}

// runFrom resumes st fault-free, turning a panic into an error.
func runFrom(st propane.State) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return digestTarget.RunFrom(st, propane.NopProbe{}, nil)
}
