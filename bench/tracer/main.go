// Command tracer is the in-process half of the benchmark's traced run.
// The runner (package bench) builds and calls it only for --trace 1:
// it calls each layer's public Go entry points directly, with spans the
// benchmark owns around the calls, and reports per-layer numbers the
// CLI cannot give.
//
//	tracer gen   -datasets ID[,ID] -scale N -stride N -seed N -fabric ID -epoch NS -out DIR
//	tracer codec -bundle FILE -detector ID -codec binary|json -bodies FILE -out FILE
//
// gen walks generation (campaign, preprocess, baseline, refine, fit)
// for each dataset exactly as `edem run` and `edem export` do, replays
// the refinement grid serially to split it into kernels, runs the
// dataset's campaign through an in-process fabric coordinator and two
// workers, and writes the bundle, predicates, PROPANE log and journal
// it produced next to its report. codec times request decoding,
// evaluation and response encoding on the runner's own request bodies.
//
// Both write a JSON report: metrics by name, spans, and errors. Any
// error means the traced run's outputs are not correct.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"edem/bench/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracer gen|codec [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "codec":
		err = cmdCodec(os.Args[2:])
	default:
		err = fmt.Errorf("unknown command %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}

// output is the report a tracer command writes.
type output struct{ report.TracerReport }

func newOutput() *output {
	return &output{report.TracerReport{Metrics: make(map[string]float64)}}
}

func (o *output) errorf(format string, args ...any) {
	o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
}

func (o *output) write(path string) error {
	data, err := json.Marshal(o)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// recorder keeps spans in memory until the command writes its report.
// Times are nanoseconds since the runner's trace epoch, so the
// runner's and the tracer's spans share one time base.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	base  int64 // t0 as an offset from the epoch
	spans []report.Span
}

func newRecorder(epoch int64) *recorder {
	t0 := time.Now()
	return &recorder{t0: t0, base: t0.UnixNano() - epoch}
}

func (r *recorder) now(t time.Time) int64 { return r.base + int64(t.Sub(r.t0)) }

// begin opens a span and returns its ID.
func (r *recorder) begin(name, op string, parent int) int {
	start := r.now(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, report.Span{ID: id, Parent: parent, Name: name, Op: op, Start: start})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	end := r.now(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = end
	return time.Duration(s.Dur())
}

// add records a span whose interval is already known.
func (r *recorder) add(name, op string, parent int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, report.Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: r.now(start), End: r.now(end)})
}

func (r *recorder) snapshot() []report.Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]report.Span(nil), r.spans...)
}
