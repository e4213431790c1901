package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The ARFF subset written here covers what the methodology needs:
// @relation, numeric @attributes, a nominal class and dense @data rows
// — the format the purpose-built conversion tool of paper §VII-B emits
// for the Weka suite. The last attribute is the class, following
// Weka's convention. edem only writes ARFF; the reader
// that checks the writer is a test oracle (arff_reader_test.go).

// WriteARFF serialises the dataset in ARFF. The class is emitted as the
// final attribute, named "class".
func WriteARFF(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	name := d.Name
	if name == "" {
		name = "unnamed"
	}
	fmt.Fprintf(bw, "@relation %s\n\n", quoteIfNeeded(name))
	for _, a := range d.Attrs {
		fmt.Fprintf(bw, "@attribute %s numeric\n", quoteIfNeeded(a.Name))
	}
	classVals := make([]string, len(d.ClassValues))
	for i, v := range d.ClassValues {
		classVals[i] = quoteIfNeeded(v)
	}
	fmt.Fprintf(bw, "@attribute class {%s}\n\n@data\n", strings.Join(classVals, ","))

	for i := range d.Instances {
		in := &d.Instances[i]
		fields := make([]string, 0, len(in.Values)+1)
		for _, v := range in.Values {
			fields = append(fields, strconv.FormatFloat(v, 'g', -1, 64))
		}
		fields = append(fields, quoteIfNeeded(d.ClassValues[in.Class]))
		fmt.Fprintln(bw, strings.Join(fields, ","))
	}
	return bw.Flush()
}

// quoteIfNeeded wraps values containing ARFF metacharacters in single
// quotes, backslash-escaping backslashes and single quotes, so an
// escape-aware reader recovers the value byte-for-byte.
func quoteIfNeeded(s string) string {
	if s == "" || strings.ContainsAny(s, " ,\t{}%'\"\\") {
		s = strings.ReplaceAll(s, `\`, `\\`)
		s = strings.ReplaceAll(s, "'", `\'`)
		return "'" + s + "'"
	}
	return s
}
