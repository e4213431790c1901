package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV export: a header row of attribute names plus a final "class"
// column. This is the lingua franca for moving fault-injection datasets
// into other toolchains.

// WriteCSV serialises the dataset with a header row, the class label
// last.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(d.Attrs)+1)
	for _, a := range d.Attrs {
		header = append(header, a.Name)
	}
	header = append(header, "class")
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("csv: header: %w", err)
	}
	row := make([]string, len(header))
	for i := range d.Instances {
		in := &d.Instances[i]
		for j, v := range in.Values {
			row[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		row[len(row)-1] = d.ClassValues[in.Class]
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("csv: row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
