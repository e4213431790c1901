package dataset

import (
	"encoding/csv"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestCSVRoundTrip reads WriteCSV's output back with encoding/csv: a
// header of the attribute names plus "class", then one row per
// instance with '?' for a missing value, nominal values and the class
// by name, and numbers that parse back to the same float64.
func TestCSVRoundTrip(t *testing.T) {
	d := sampleDataset(t, 20)
	d.Name = "rt"
	d.Attrs[2].Values[1] = `mid,"quoted"` // exercises CSV quoting
	d.Instances[2].Values[0] = Missing
	d.Instances[5].Values[2] = Missing

	var sb strings.Builder
	if err := WriteCSV(&sb, d); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("csv.Reader: %v\n%s", err, sb.String())
	}
	var header []string
	for _, a := range d.Attrs {
		header = append(header, a.Name)
	}
	header = append(header, "class")
	if !slices.Equal(records[0], header) {
		t.Fatalf("header = %q, want %q", records[0], header)
	}
	if len(records)-1 != d.Len() {
		t.Fatalf("rows = %d, want %d", len(records)-1, d.Len())
	}
	for i, rec := range records[1:] {
		in := d.Instances[i]
		if rec[len(rec)-1] != d.ClassValues[in.Class] {
			t.Fatalf("row %d class = %q, want %q", i, rec[len(rec)-1], d.ClassValues[in.Class])
		}
		for j, v := range in.Values {
			cell := rec[j]
			switch {
			case IsMissing(v):
				if cell != "?" {
					t.Fatalf("row %d col %d = %q, want ?", i, j, cell)
				}
			case d.Attrs[j].Type == Nominal:
				if cell != d.Attrs[j].Values[int(v)] {
					t.Fatalf("row %d col %d = %q, want %q", i, j, cell, d.Attrs[j].Values[int(v)])
				}
			default:
				got, err := strconv.ParseFloat(cell, 64)
				if err != nil || got != v {
					t.Fatalf("row %d col %d = %q (%v), want %v", i, j, cell, err, v)
				}
			}
		}
	}
}
