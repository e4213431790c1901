package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edem/internal/propane"
)

func TestBundleRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.json")
	in := testBundle("MG-A1", "FG-B2")
	in.Detectors[1].Location = "Entry"
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Detectors) != 2 {
		t.Fatalf("detectors = %d", len(out.Detectors))
	}
	for i, e := range out.Detectors {
		want := in.Detectors[i]
		if e.ID != want.ID || e.Module != want.Module || e.Location != want.Location {
			t.Fatalf("entry %d = %+v, want %+v", i, e, want)
		}
		if e.Predicate == nil || len(e.Predicate.Clauses) != len(want.Predicate.Clauses) {
			t.Fatalf("entry %d predicate did not round-trip: %+v", i, e.Predicate)
		}
		// The decoded predicate must evaluate identically.
		for _, v := range []float64{5, 100, 100.5, 500} {
			if e.Predicate.Eval([]float64{v}) != want.Predicate.Eval([]float64{v}) {
				t.Fatalf("entry %d predicate diverges at %g", i, v)
			}
		}
	}
	if loc, err := out.Detectors[1].ParseLocation(); err != nil || loc != propane.Entry {
		t.Fatalf("location = %v, %v", loc, err)
	}
}

// TestBundleWriteFileKeepsOldOnInvalid pins the export path a server
// reloads from: writing an invalid bundle over a valid one fails and
// leaves the valid bytes in place, with no temp file behind.
func TestBundleWriteFileKeepsOldOnInvalid(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.json")
	if err := testBundle("MG-A1").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Bundle{Version: BundleVersion}).WriteFile(path); err == nil {
		t.Fatal("a bundle without detectors was written")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("failed write changed the bundle: %d bytes -> %d bytes", len(before), len(after))
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	if _, err := LoadBundle(path); err != nil {
		t.Fatalf("the kept bundle no longer loads: %v", err)
	}
}

func TestBundleValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Bundle)
		want string
	}{
		{"bad version", func(b *Bundle) { b.Version = 99 }, "version"},
		{"no detectors", func(b *Bundle) { b.Detectors = nil }, "no detectors"},
		{"empty id", func(b *Bundle) { b.Detectors[0].ID = "" }, "empty id"},
		{"duplicate id", func(b *Bundle) { b.Detectors[1].ID = b.Detectors[0].ID }, "duplicate"},
		{"bad location", func(b *Bundle) { b.Detectors[0].Location = "Middle" }, "location"},
		{"nil predicate", func(b *Bundle) { b.Detectors[0].Predicate = nil }, "no predicate"},
		// The atom names w but reads index 0, which is v.
		{"misread atom", func(b *Bundle) { b.Detectors[0].Predicate.Clauses[0][0].Var = "w" }, `names "w" but index 0 is "v"`},
	}
	for _, tc := range cases {
		b := testBundle("A", "B")
		tc.mut(b)
		err := b.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := testBundle("A", "B").Validate(); err != nil {
		t.Errorf("valid bundle rejected: %v", err)
	}
}

// uncompilableAtoms are atoms predicate.Compile refuses, in bundle JSON:
// an atom with no operator (the zero Op) and an index past the int32
// index column. Both decode cleanly; only compilation rejects them.
var uncompilableAtoms = map[string]string{
	"unknown-op": `{"var":"v","index":0,"threshold":1}`,
	"huge-index": `{"var":"v","index":2147483648,"op":">","threshold":1}`,
}

// uncompilableBundleJSON is a one-detector bundle (ID "D1") whose only
// clause is atom.
func uncompilableBundleJSON(atom string) string {
	return `{"version":1,"detectors":[{"id":"D1","module":"M","location":"Exit",` +
		`"predicate":{"name":"D1","vars":["v"],"clauses":[[` + atom + `]]}}]}`
}

// TestReadBundleRefusesUncompilable pins where an uncompilable
// predicate is caught: at the bundle boundary, not at evaluation time.
func TestReadBundleRefusesUncompilable(t *testing.T) {
	for name, atom := range uncompilableAtoms {
		_, err := ReadBundle(strings.NewReader(uncompilableBundleJSON(atom)))
		if err == nil || !strings.Contains(err.Error(), "compile") {
			t.Errorf("%s: ReadBundle err = %v, want a compile refusal", name, err)
		}
	}
}
