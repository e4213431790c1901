package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"edem/bench/internal/report"
)

// A traced run measures each workload's operation once more with spans
// around every layer. The tracer binary covers the layers reachable
// in-process — generation for the workload's datasets, a serial replay
// of the refinement grid, an in-process fabric run — and times the
// serving codecs on the workload's own bodies; the runner adds a
// traced fixed-rate window against `edem serve`. Every workload walks
// this whole tour, so every per-layer metric is measured on every
// workload: a workload picks the datasets and the traffic, and its own
// operation is the one the overhead and coverage ratios describe.

// traceLog is everything a traced run records: the layer metrics, the
// spans, and the epoch their times count from.
type traceLog struct {
	epoch   time.Time
	metrics map[string]float64
	spans   []report.Span
}

func newTraceLog() *traceLog {
	return &traceLog{epoch: time.Now(), metrics: make(map[string]float64)}
}

// merge adds a tracer report, renumbering its spans after the ones
// already kept, and counts its errors as failures.
func (t *traceLog) merge(w result, out *report.TracerReport) {
	off := len(t.spans)
	for _, s := range out.Spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
	for k, v := range out.Metrics {
		t.metrics[k] = v
	}
	for _, e := range out.Errors {
		w.fail("tracer: %s", e)
	}
}

// runTracer runs one tracer command and reads its report.
func (b *bench) runTracer(w result, t *traceLog, path string, args ...string) error {
	c, err := b.startBin(b.tracer, b.work, args...)
	if err != nil {
		return err
	}
	if err := c.wait(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var out report.TracerReport
	if err := json.Unmarshal(data, &out); err != nil {
		return fmt.Errorf("tracer report: %w", err)
	}
	t.merge(w, &out)
	return nil
}

// tracerGen runs the tracer's generation and fabric tour into a fresh
// directory and returns it.
func (b *bench) tracerGen(w result, t *traceLog, datasets string, scale, stride int, seed uint64, fabricID string) (string, error) {
	dir, err := b.dir("tour")
	if err != nil {
		return "", err
	}
	return dir, b.runTracer(w, t, filepath.Join(dir, "trace.json"), "gen",
		"-datasets", datasets, "-scale", strconv.Itoa(scale), "-stride", strconv.Itoa(stride),
		"-seed", strconv.FormatUint(seed, 10), "-fabric", fabricID,
		"-epoch", strconv.FormatInt(t.epoch.UnixNano(), 10), "-out", dir)
}

// probe is the serving traffic of the tour for the workloads that do not
// serve: serve-bin64's binary 64-sample batches at its fixed rate,
// against the detector the workload generated.
func probe(dataset string) serveSpec {
	s := serveBin64
	s.detector = dataset
	return s
}

// traceGen is the tour of a generation workload: the in-process
// predicate must be the one `edem run` saved (digest).
func (b *bench) traceGen(w result, g genSpec, seed uint64, digest string, wall []float64) error {
	return b.traceCampaign(w, g.name, g, seed, "generate", wall, func(dir string) error {
		got, err := fileSHA256(filepath.Join(dir, "pred-"+g.dataset+".json"))
		if err == nil && got != digest {
			w.fail("in-process predicate sha256 %s differs from edem run's %s", got, digest)
		}
		return err
	})
}

// traceFabric is the tour of the fabric workload: the in-process
// fabric's sealed journal must equal the local journal (want).
func (b *bench) traceFabric(w result, f fabricSpec, seed uint64, want []byte, wall []float64) error {
	return b.traceCampaign(w, f.name, f.gen, seed, "fabric", wall, func(dir string) error {
		got, err := os.ReadFile(filepath.Join(dir, "journal", f.gen.dataset, "checkpoints.jsonl"))
		if err == nil && !bytes.Equal(got, want) {
			w.fail("in-process fabric journal differs from the local journal")
		}
		return err
	})
}

// traceCampaign runs the tour on g's dataset, checks its artefacts with
// check, and serves the predicate it generated with the probe traffic.
// op is the tracer's root span matching the workload's operation, whose
// untraced wall clock (ms, per rep) is wall.
func (b *bench) traceCampaign(w result, name string, g genSpec, seed uint64, op string, wall []float64, check func(dir string) error) error {
	t := newTraceLog()
	dir, err := b.tracerGen(w, t, g.dataset, g.scale, g.stride, seed, g.dataset)
	if err != nil {
		return err
	}
	if err := check(dir); err != nil {
		return err
	}
	s := probe(g.dataset)
	bundle := filepath.Join(dir, "bundle.json")
	tr, err := s.traffic(bundle, filepath.Join(dir, "states.log"), b.seed)
	if err != nil {
		return err
	}
	if _, err := b.serveSection(w, t, s, tr, bundle, nil); err != nil {
		return err
	}
	t.metrics["trace.overhead_ratio"] = t.metrics[op+".wall_s"] / (report.Median(wall) / 1e3)
	t.metrics["trace.coverage"] = t.metrics[op+".coverage"]
	return b.finishTrace(w, name, t)
}

// traceServe runs the tour for a serving workload on the server and
// traffic the untraced windows just used; untracedP50 is their median
// latency in milliseconds.
func (b *bench) traceServe(w result, s serveSpec, tr *traffic, srv *child, bundle string, untracedP50 float64) error {
	t := newTraceLog()
	dir, err := b.tracerGen(w, t, bundleDatasets, bundleScale, bundleStride, campaignSeed(b.seed), s.detector)
	if err != nil {
		return err
	}
	mine, err1 := fileSHA256(filepath.Join(dir, "bundle.json"))
	theirs, err2 := fileSHA256(bundle)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("bundle digests: %v, %v", err1, err2)
	}
	if mine != theirs {
		w.fail("in-process bundle sha256 %s differs from edem export's %s", mine, theirs)
	}
	p50, err := b.serveSection(w, t, s, tr, bundle, srv)
	if err != nil {
		return err
	}
	t.metrics["trace.overhead_ratio"] = p50 / 1e3 / untracedP50
	t.metrics["trace.coverage"] = report.Coverage(t.spans, "request")
	return b.finishTrace(w, s.name, t)
}

// keptRequestSpans caps the per-request spans a trace file keeps.
const keptRequestSpans = 2000

// serveSection is the tour's serving part: the codec kernels timed
// in-process on the traffic's own bodies, then one traced fixed-rate
// window and one closed-loop window against `edem serve` (srv, or a
// fresh server on bundle when srv is nil). It returns the fixed-rate
// window's median latency in microseconds.
func (b *bench) serveSection(w result, t *traceLog, s serveSpec, tr *traffic, bundle string, srv *child) (float64, error) {
	bodies := filepath.Join(b.work, "bodies.bin")
	if err := writeBodies(bodies, tr); err != nil {
		return 0, err
	}
	codecOut := filepath.Join(b.work, "codec.json")
	codec := "json"
	if s.binary {
		codec = "binary"
	}
	if err := b.runTracer(w, t, codecOut, "codec", "-bundle", bundle, "-detector", s.detector,
		"-codec", codec, "-bodies", bodies, "-out", codecOut); err != nil {
		return 0, err
	}

	g := newLoadgen(b.conns)
	defer g.close()
	if srv == nil {
		c, addr, _, err := b.startServer(b.work, bundle)
		if err != nil {
			return 0, err
		}
		defer c.stop()
		srv = c
		tr.url = "http://" + addr + "/v1/evaluate"
		w.record(g.openLoop(tr, s.rate, warmup, false))
	}
	var before, after syscall.Rusage
	var start time.Time
	redos := 0
	p, err := w.steadyWindow(s.rate, &redos, func() (*phase, error) {
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &before)
		start = time.Now()
		p := g.openLoop(tr, s.rate, b.fixedWindow(), true)
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &after)
		return p, nil
	})
	if err != nil {
		return 0, err
	}
	sat := g.closedLoop(tr, b.fixedWindow())
	w.record(sat)

	base := int64(start.Sub(t.epoch))
	var server, client []float64
	var sheds, alarms, ok int
	for i := range p.reqs {
		r := &p.reqs[i]
		if r.status == http.StatusTooManyRequests {
			sheds++
		}
		if r.err != nil || r.wrote == 0 || r.first == 0 {
			continue
		}
		ok++
		alarms += r.alarms
		srvUS := float64(r.first-r.wrote) / 1e3
		server = append(server, srvUS)
		client = append(client, r.latency()-srvUS)
		if i < keptRequestSpans {
			op := "req-" + strconv.Itoa(i)
			id := len(t.spans) + 1
			span := func(name string, from, to time.Duration, parent int) {
				t.spans = append(t.spans, report.Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op,
					Start: base + int64(from), End: base + int64(to)})
			}
			span("request", r.sent, r.done, 0)
			span("send", r.sent, r.wrote, id)
			span("server", r.wrote, r.first, id)
			span("receive", r.first, r.done, id)
		}
	}
	if ok == 0 {
		return 0, fmt.Errorf("no successful traced requests")
	}
	lat := p.latencies()
	m := t.metrics
	m["serve.server_us"] = report.Median(server)
	m["serve.client_us"] = report.Median(client)
	m["serve.hop_us"] = m["serve.server_us"] - m["serve.decode_us"] - m["serve.eval_us"] - m["serve.encode_us"]
	m["serve.tail_us"] = report.Percentile(lat, report.TailPercentile(len(lat)))
	late := p.lateness()
	m["serve.late_tail_us"] = report.Percentile(late, report.TailPercentile(len(late)))
	m["serve.sat_rps"] = float64(len(sat.reqs)-sat.failed) / sat.duration.Seconds()
	m["serve.shed_ratio"] = float64(sheds) / float64(len(p.reqs))
	m["serve.alarm_ratio"] = float64(alarms) / float64(ok*s.batch)
	cpu := time.Duration(syscall.TimevalToNsec(after.Utime) + syscall.TimevalToNsec(after.Stime) -
		syscall.TimevalToNsec(before.Utime) - syscall.TimevalToNsec(before.Stime))
	m["serve.gen_cpu_us_per_req"] = cpu.Seconds() * 1e6 / float64(len(p.reqs))
	return report.Median(lat), nil
}

// finishTrace writes the trace file and records the layer metrics.
func (b *bench) finishTrace(w result, name string, t *traceLog) error {
	for k, v := range t.metrics {
		w.set(k, []float64{v})
	}
	path := filepath.Join("bench", "out", "trace-"+name+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string        `json:"workload"`
		Spans    []report.Span `json:"spans"`
	}{name, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeBodies writes the traffic for the tracer's codec timing: per
// body a u32 length and the body, then a u32 count and one byte per
// expected verdict.
func writeBodies(path string, tr *traffic) error {
	var buf []byte
	for i, body := range tr.bodies {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
		buf = append(buf, body...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tr.want[i])))
		for _, v := range tr.want[i] {
			if v {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return os.WriteFile(path, buf, 0o644)
}

func fileSHA256(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
