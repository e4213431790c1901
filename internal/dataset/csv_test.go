package dataset

import (
	"encoding/csv"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestCSVRoundTrip reads WriteCSV's output back with encoding/csv: a
// header of the attribute names plus "class", then one row per
// instance with the class by name and numbers, the clamps and
// infinities among them, that parse back to the same float64.
func TestCSVRoundTrip(t *testing.T) {
	d := sampleDataset(t, 20)
	d.Name = "rt"
	d.Attrs[2].Name = `mid,"quoted"` // exercises CSV quoting
	d.ClassValues[1] = "pos itive,"
	d.Instances[2].Values[0] = 1e308
	d.Instances[5].Values[2] = math.Inf(-1)

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
			got, err := strconv.ParseFloat(rec[j], 64)
			if err != nil || got != v {
				t.Fatalf("row %d col %d = %q (%v), want %v", i, j, rec[j], err, v)
			}
		}
	}
}
