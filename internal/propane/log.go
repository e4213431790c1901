package propane

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The PROPANE-style log format: a self-describing line-oriented text
// format, one injected run per RUN line. The purpose-built conversion
// tool of paper §VII-B is WriteLog plus ToDataset (log → ARFF); edem
// converts in memory and never reads a log back, so the reader is a
// test oracle of the writer (log_reader_test.go).
//
//	#PROPANE v1
//	#target 7-Zip
//	#dataset 7Z-A2
//	#module FHandle
//	#inject Entry
//	#sample Exit
//	#fault burst 3 1
//	#vars bytesIn bytesOut crc ...
//	RUN tc=3 var=crc bit=17 t=2 inj=1 smp=1 fail=0 crash=0 state=1024,2048,...
//
// Fields are space-separated; the state vector is comma-separated and
// omitted when no sample was captured. The #fault header carries the
// campaign's fault model as "<model> <width> <persist>" and, like every
// absent-value header, is omitted entirely for the default transient
// model — transient logs are byte-identical to logs written before the
// fault-model axis existed.

// WriteLog serialises a campaign in the PROPANE log format. Header
// lines whose value is absent (empty name, zero location, no vars) are
// omitted entirely: a header keyword with no value is not parseable, so
// emitting it would make the writer's own output unreadable.
func WriteLog(w io.Writer, c *Campaign) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#PROPANE v1")
	writeHeader(bw, "#target", c.Target)
	writeHeader(bw, "#dataset", c.Spec.Dataset)
	writeHeader(bw, "#module", c.Spec.Module)
	if c.Spec.InjectAt == Entry || c.Spec.InjectAt == Exit {
		fmt.Fprintf(bw, "#inject %s\n", c.Spec.InjectAt)
	}
	if c.Spec.SampleAt == Entry || c.Spec.SampleAt == Exit {
		fmt.Fprintf(bw, "#sample %s\n", c.Spec.SampleAt)
	}
	if f := c.Spec.Fault.Normalized(); !f.IsTransient() {
		fmt.Fprintf(bw, "#fault %s %d %d\n", f.Model, f.Width, f.Persist)
	}
	if len(c.VarNames) > 0 {
		fmt.Fprintf(bw, "#vars %s\n", strings.Join(c.VarNames, " "))
	}
	for i := range c.Records {
		r := &c.Records[i]
		fmt.Fprintf(bw, "RUN tc=%d var=%s bit=%d t=%d inj=%s smp=%s fail=%s crash=%s",
			r.TestCase, r.Var, r.Bit, r.InjectionTime,
			bool01(r.Injected), bool01(r.Sampled), bool01(r.Failure), bool01(r.Crashed))
		// A sampled run can still carry an empty state vector (e.g. a
		// module with no variables); "state=" with no values would not
		// reparse, so the field appears only when there are values.
		if r.Sampled && len(r.State) > 0 {
			parts := make([]string, len(r.State))
			for j, v := range r.State {
				parts[j] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			fmt.Fprintf(bw, " state=%s", strings.Join(parts, ","))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

func writeHeader(w io.Writer, keyword, value string) {
	if value != "" {
		fmt.Fprintf(w, "%s %s\n", keyword, value)
	}
}

func bool01(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
