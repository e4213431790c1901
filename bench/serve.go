package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"edem/bench/internal/report"
)

// serveSpec is a detector-serving workload: `edem serve` with the
// bundle from `edem export`, driven over loopback with the campaign's
// own sampled states.
type serveSpec struct {
	name     string
	detector string
	binary   bool
	batch    int
	rate     float64 // fixed open-loop rate, req/s
}

// serve-bin64 is dominated by the fixed per-request cost (HTTP,
// admission queue, worker hand-off): 64-sample binary batches evaluate
// inline. serve-json512 is dominated by the JSON codec, and its
// 512-sample batches take the parallel evaluation path. A change to
// the per-request hop should show on the first and cost nothing on the
// second; a codec change shows on the second. Each fixed rate is at
// most 30% of the closed-loop saturation throughput measured on a 2-CPU
// machine (about 20k and 420 req/s). bin64 runs well below that: the
// open loop paces itself with timers that overshoot by about half a
// millisecond, which leaves it less headroom than the closed loop, and
// at 7000 req/s its lateness after stalls of the machine reached 50 ms.
var (
	serveBin64   = serveSpec{name: "serve-bin64", detector: "FG-A2", binary: true, batch: 64, rate: 4000}
	serveJSON512 = serveSpec{name: "serve-json512", detector: "7Z-B2", binary: false, batch: 512, rate: 120}
)

// The bundle both serving workloads load: FG-A2 (9 variables, a few
// clauses) and 7Z-B2 (16 clauses, ~90 atoms), at a small scale.
const (
	bundleDatasets = "FG-A2,7Z-B2"
	bundleScale    = 4
	bundleStride   = 8
)

var bundleArgs = []string{"-dataset", bundleDatasets,
	"-scale", strconv.Itoa(bundleScale), "-stride", strconv.Itoa(bundleStride)}

const (
	warmup = 500 * time.Millisecond // unrecorded traffic before measuring
	// windows is how many fixed-rate windows share --seconds. Many
	// short windows let the medians ride out a few seconds of
	// interference from other tenants of the machine.
	windows = 10
)

func serveWorkload(s serveSpec) workload {
	return func(b *bench) (*report.Workload, error) {
		w := newWorkload()
		seed := campaignSeed(b.seed)
		dir, err := b.dir(s.name)
		if err != nil {
			return nil, err
		}
		bundle := filepath.Join(dir, "bundle.json")
		if err := b.runCLI(dir, append(append([]string{"export"}, bundleArgs...),
			"-seed", strconv.FormatUint(seed, 10), "-out", bundle)...); err != nil {
			return nil, err
		}
		states := filepath.Join(dir, "states.log")
		if err := b.runCLI(dir, "inject", "-dataset", s.detector, "-scale", strconv.Itoa(bundleScale),
			"-stride", strconv.Itoa(bundleStride), "-seed", strconv.FormatUint(seed, 10), "-log", states); err != nil {
			return nil, err
		}
		tr, err := s.traffic(bundle, states, b.seed)
		if err != nil {
			return nil, err
		}

		srv, addr, _, err := b.startServer(dir, bundle)
		if err != nil {
			return nil, err
		}
		tr.url = "http://" + addr + "/v1/evaluate"
		// Set-ups are further servers on the same bundle, each stopped
		// once it answers, timed between the measured windows.
		st := &setups{once: func() (time.Duration, error) {
			c, _, took, err := b.startServer(dir, bundle)
			if err != nil {
				return 0, err
			}
			return took, c.stop()
		}}
		g := newLoadgen(b.conns)
		defer g.close()
		w.record(g.openLoop(tr, s.rate, warmup, false))

		// A traced run measures minReps untraced windows, whose median is
		// the reference for the trace overhead.
		n := windows
		if b.trace {
			n = minReps
		}
		var p50, cpu []float64
		redos := 0
		for i := 0; i < n; i++ {
			if !b.trace {
				if err := st.take(setupsPerOp); err != nil {
					return nil, err
				}
			}
			var perReq time.Duration
			p, err := w.steadyWindow(s.rate, &redos, func() (p *phase, err error) {
				p, perReq, err = fixedRate(g, tr, srv, s.rate, b.fixedWindow())
				return p, err
			})
			if err != nil {
				return nil, err
			}
			p50 = append(p50, report.Percentile(p.latencies(), 50)/1e3)
			cpu = append(cpu, perReq.Seconds()*1e3)
		}
		if b.trace {
			if err := b.traceServe(w, s, tr, srv, bundle, report.Median(p50)); err != nil {
				return nil, err
			}
		}
		g.close()
		if err := srv.stop(); err != nil {
			return nil, err
		}
		w.set("latency_ms", p50)
		w.set("cpu_ms", cpu)
		w.set("peak_rss_mb", []float64{srv.rssMiB()})
		if b.trace {
			return w.Workload, nil
		}
		if err := st.finish(); err != nil {
			return nil, err
		}
		w.set("setup_s", st.times)
		return w.Workload, nil
	}
}

// fixedWindow is the length of one fixed-rate window.
func (b *bench) fixedWindow() time.Duration { return b.seconds / windows }

// fixedRate runs one open-loop window and returns it with the server's
// CPU time per request over the window.
func fixedRate(g *loadgen, tr *traffic, srv *child, rate float64, d time.Duration) (*phase, time.Duration, error) {
	before, err := srv.liveCPU()
	if err != nil {
		return nil, 0, err
	}
	p := g.openLoop(tr, rate, d, false)
	after, err := srv.liveCPU()
	if err != nil {
		return nil, 0, err
	}
	return p, (after - before) / time.Duration(max(len(p.reqs), 1)), nil
}

// maxRedos is how many fixed-rate windows one run may discard and run
// again for falling short of the offered rate.
const maxRedos = 4

// steadyWindow runs one fixed-rate window through run and records its
// requests. A window that fell short of the offered rate measured a
// lighter load than it claims, so it is run again, up to maxRedos times
// per run (counted in redos). Every request of a discarded window is
// still checked and counted; only its timings are dropped. Once the
// redos are spent a short window is kept and reported on stderr, but
// its requests do not count as failed: their outputs were checked, and
// on a shared 2-CPU machine whose hypervisor took a fifth to a half of
// the CPU time, the machine itself fell short of the rate for whole
// windows.
func (r result) steadyWindow(rate float64, redos *int, run func() (*phase, error)) (*phase, error) {
	for {
		p, err := run()
		if err != nil {
			return nil, err
		}
		r.record(p)
		achieved, ok := keptUp(rate, p)
		if ok {
			return p, nil
		}
		if *redos >= maxRedos {
			fmt.Fprintf(os.Stderr, "bench: window achieved %.0f of %.0f req/s; kept, no re-runs left\n", achieved, rate)
			return p, nil
		}
		*redos++
		fmt.Fprintf(os.Stderr, "bench: window achieved %.0f of %.0f req/s; running it again (%d of %d)\n",
			achieved, rate, *redos, maxRedos)
	}
}

// record counts a phase's requests and failures in the result.
func (r result) record(p *phase) {
	r.Attempted += len(p.reqs)
	for i := range p.reqs {
		if err := p.reqs[i].err; err != nil {
			r.fail("request %d: %v", i, err)
		}
	}
}

// traffic builds the workload's request bodies: the detector's sampled
// states in a seeded shuffle, cut into batches (the last one wraps
// around), with the verdicts each batch must get back.
func (s serveSpec) traffic(bundlePath, statesPath string, seed uint64) (*traffic, error) {
	dets, err := readBundle(bundlePath)
	if err != nil {
		return nil, err
	}
	det := dets[s.detector]
	if det == nil {
		return nil, fmt.Errorf("detector %s not in %s", s.detector, bundlePath)
	}
	states, err := readStates(statesPath)
	if err != nil {
		return nil, err
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("%s holds no sampled states", statesPath)
	}
	shuffle(states, seed)
	t := &traffic{binary: s.binary, contentType: "application/json"}
	if s.binary {
		t.contentType = "application/x-edem-batch"
	}
	for start := 0; start < len(states); start += s.batch {
		batch := make([][]float64, s.batch)
		want := make([]bool, s.batch)
		for i := range batch {
			batch[i] = states[(start+i)%len(states)]
			if len(batch[i]) != len(det.Predicate.Vars) {
				return nil, fmt.Errorf("state of %d values for a %d-variable detector", len(batch[i]), len(det.Predicate.Vars))
			}
			want[i] = det.eval(batch[i])
		}
		body := encodeJSON(s.detector, batch)
		if s.binary {
			body = encodeBinary(s.detector, batch)
		}
		t.bodies = append(t.bodies, body)
		t.want = append(t.want, want)
	}
	return t, nil
}

// shuffle is a seeded Fisher-Yates shuffle over a splitmix64 stream,
// spelled out so the traffic for a seed never depends on the Go
// release.
func shuffle[T any](xs []T, seed uint64) {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := len(xs) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

var servingRE = regexp.MustCompile(`serving \d+ detectors on http://([^/\s]+)/`)

// parseServingLine extracts the listen address from the line
// `edem serve` prints once it is listening.
func parseServingLine(line string) (string, error) {
	m := servingRE.FindStringSubmatch(line)
	if m == nil {
		return "", fmt.Errorf("no address in serve line %q", line)
	}
	return m[1], nil
}

// startServer starts `edem serve` on a free loopback port and returns
// it once /healthz answers 200, with the time from exec to that answer:
// bundle load, validation and predicate compilation.
func (b *bench) startServer(dir, bundle string) (*child, string, time.Duration, error) {
	c, err := b.start(dir, "serve", "-bundle", bundle, "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, "", 0, err
	}
	line, _, err := c.waitLine("serving ", time.Minute)
	if err != nil {
		return nil, "", 0, err
	}
	addr, err := parseServingLine(line)
	if err != nil {
		return nil, "", 0, err
	}
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := time.Now().Add(time.Minute); ; {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, addr, time.Since(c.start), nil
			}
		}
		if time.Now().After(deadline) {
			return nil, "", 0, fmt.Errorf("%s: /healthz not ready: %v", c.name, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// runCLI runs one edem command to completion, for set-up steps.
func (b *bench) runCLI(dir string, args ...string) error {
	c, err := b.start(dir, args...)
	if err != nil {
		return err
	}
	return c.wait()
}
