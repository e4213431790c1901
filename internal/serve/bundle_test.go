package serve

import (
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
