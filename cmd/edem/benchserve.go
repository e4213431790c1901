package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"edem/internal/durable"
	"edem/internal/lifecycle"
	"edem/internal/serve"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// cmdBenchServe is the wire-speed load harness for the serving runtime:
// it spins up a fresh in-process server per measurement leg — one per
// codec (json, binary), plus optional self-shadow legs — drives it
// closed-loop from -conns concurrent clients for -duration, and records
// latency percentiles, throughput and shed rate into a JSON snapshot
// comparable PR-over-PR (BENCH_serve.json). The json leg is the
// baseline the binary leg's speedup is quoted against.
func cmdBenchServe(args []string) error {
	fs := flag.NewFlagSet("bench-serve", flag.ContinueOnError)
	bundlePath := fs.String("bundle", "", "detector bundle file (from edem export)")
	out := fs.String("out", "BENCH_serve.json", "benchmark snapshot output file")
	duration := fs.Duration("duration", 3*time.Second, "measurement window per leg")
	warmup := fs.Duration("warmup", 300*time.Millisecond, "unrecorded warm-up per leg")
	conns := fs.Int("conns", 8, "concurrent closed-loop client connections")
	batch := fs.Int("batch", 64, "samples per request")
	detID := fs.String("detector", "", "detector ID to drive (default: first in the bundle)")
	shadowLegs := fs.Bool("shadow", false, "add self-shadow legs (the bundle shadowing itself) to measure lifecycle dual-evaluation overhead")
	opts, tel := commonOpts(fs)
	if err := parseArgs(fs, args, opts, tel); err != nil {
		return err
	}
	defer tel.finish()
	if *bundlePath == "" {
		return fmt.Errorf("bench-serve needs -bundle FILE (produce one with edem export)")
	}
	if *conns <= 0 || *batch <= 0 {
		return fmt.Errorf("bench-serve needs positive -conns and -batch")
	}
	b, err := serve.LoadBundle(*bundlePath)
	if err != nil {
		return err
	}
	id := *detID
	if id == "" {
		id = b.Detectors[0].ID
	}
	var arity int
	found := false
	for _, e := range b.Detectors {
		if e.ID == id {
			arity, found = len(e.Predicate.Vars), true
		}
	}
	if !found {
		return fmt.Errorf("bench-serve: detector %q not in bundle %s", id, *bundlePath)
	}

	// One fixed seeded sample set shared by every leg: identical work,
	// so the legs differ only in codec and shadowing.
	rng := stats.NewRNG(opts.Seed)
	samples := make([]serve.Sample, *batch)
	for i := range samples {
		s := make(serve.Sample, arity)
		for j := range s {
			s[j] = rng.Float64()*200 - 100
		}
		samples[i] = s
	}

	type legSpec struct {
		Codec  serve.Codec
		Shadow bool
	}
	legs := []legSpec{
		{serve.CodecJSON, false}, // baseline
		{serve.CodecBinary, false},
	}
	if *shadowLegs {
		// Self-shadow legs: the candidate is the live bundle itself, so
		// every request dual-evaluates with zero disagreements — the pure
		// cost of the lifecycle mirror path on top of the two codecs,
		// comparable leg-for-leg against the rows above.
		legs = append(legs,
			legSpec{serve.CodecJSON, true},
			legSpec{serve.CodecBinary, true})
	}
	results := make([]benchServeLeg, 0, len(legs))
	for _, leg := range legs {
		res, err := runServeLeg(b, *bundlePath, leg.Codec, leg.Shadow, id, samples,
			*conns, *warmup, *duration, opts.Workers)
		if err != nil {
			return err
		}
		results = append(results, *res)
		label := res.Codec
		if res.Shadow {
			label += "+shadow"
		}
		fmt.Fprintf(os.Stderr, "  %-22s %9.0f req/s  p50 %6dµs  p99 %6dµs  p99.9 %6dµs  sheds %d\n",
			label, res.ThroughputRPS, res.P50Micros, res.P99Micros, res.P999Micros, res.Sheds)
	}

	// Optional shadow legs append after the json and binary legs.
	jsonLeg, binaryLeg := results[0], results[1]
	speedup := 0.0
	if jsonLeg.ThroughputRPS > 0 {
		speedup = binaryLeg.ThroughputRPS / jsonLeg.ThroughputRPS
	}
	snap := benchServeSnapshot{
		GeneratedBy: "edem bench-serve",
		Bundle:      *bundlePath,
		Detector:    id,
		Arity:       arity,
		Batch:       *batch,
		Conns:       *conns,
		DurationSec: duration.Seconds(),
		Legs:        results,
		Speedup:     speedup,
	}
	if err := durable.WriteFile(*out, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}); err != nil {
		return err
	}
	fmt.Printf("wrote %s (binary vs json: %.2fx throughput)\n", *out, speedup)
	return nil
}

// benchServeSnapshot is the BENCH_serve.json layout.
type benchServeSnapshot struct {
	GeneratedBy string          `json:"generated_by"`
	Bundle      string          `json:"bundle"`
	Detector    string          `json:"detector"`
	Arity       int             `json:"arity"`
	Batch       int             `json:"batch"`
	Conns       int             `json:"conns"`
	DurationSec float64         `json:"duration_sec"`
	Legs        []benchServeLeg `json:"legs"`
	// Speedup is the binary leg's throughput over the json leg's.
	Speedup float64 `json:"speedup_binary_vs_json"`
}

type benchServeLeg struct {
	Codec string `json:"codec"`
	// Shadow marks a self-shadow leg: lifecycle dual evaluation enabled
	// with the bundle shadowing itself.
	Shadow        bool    `json:"shadow,omitempty"`
	Requests      int     `json:"requests"`
	Sheds         int     `json:"sheds"`
	Errors        int     `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	P50Micros     int64   `json:"p50_us"`
	P99Micros     int64   `json:"p99_us"`
	P999Micros    int64   `json:"p999_us"`
}

// runServeLeg measures one codec against a fresh in-process server, so no leg inherits the previous leg's
// warm caches, pools or breaker state. With shadow, the leg serves
// with a lifecycle monitor and the bundle loaded as its own shadow
// candidate (the dual-evaluation worst case: every request mirrors).
func runServeLeg(b *serve.Bundle, path string, codec serve.Codec, shadow bool,
	detector string, samples []serve.Sample, conns int,
	warmup, duration time.Duration, workers int) (*benchServeLeg, error) {

	cfg := serve.Config{
		QueueDepth: 2 * conns,
		Workers:    workers,
		Registry:   telemetry.New(),
	}
	if shadow {
		dir, err := os.MkdirTemp("", "edem-bench-lifecycle-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		mon, err := lifecycle.NewMonitor(lifecycle.MonitorConfig{Dir: dir, Registry: cfg.Registry})
		if err != nil {
			return nil, err
		}
		defer mon.Close()
		cfg.Monitor = mon
	}
	s, err := serve.NewServer(b, path, cfg)
	if err != nil {
		return nil, err
	}
	if shadow {
		if _, err := s.LoadShadow(path); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = hs.Serve(ln) }()
	defer func() {
		_ = hs.Close()
		<-serveDone
	}()
	base := "http://" + ln.Addr().String()

	type worker struct {
		latencies []int64 // ns, successful requests only
		sheds     int
		errors    int
	}
	run := func(until time.Time, record bool, w *worker) error {
		cl := &serve.Client{Base: base, Codec: codec}
		ctx := context.Background()
		for time.Now().Before(until) {
			start := time.Now()
			_, err := cl.Evaluate(ctx, detector, samples)
			if err != nil {
				var se *serve.StatusError
				if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
					w.sheds++
					continue
				}
				w.errors++
				if w.errors > 100 {
					return fmt.Errorf("bench-serve %v leg: too many errors, last: %w", codec, err)
				}
				continue
			}
			if record {
				w.latencies = append(w.latencies, time.Since(start).Nanoseconds())
			}
		}
		return nil
	}

	workersState := make([]worker, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	warmupUntil := time.Now().Add(warmup)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &workersState[i]
			if err := run(warmupUntil, false, w); err != nil {
				errs[i] = err
				return
			}
			w.sheds, w.errors = 0, 0 // warm-up doesn't count
			errs[i] = run(time.Now().Add(duration), true, w)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var all []int64
	leg := benchServeLeg{Codec: codec.String(), Shadow: shadow}
	for i := range workersState {
		all = append(all, workersState[i].latencies...)
		leg.Sheds += workersState[i].sheds
		leg.Errors += workersState[i].errors
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("bench-serve %v leg: no successful requests", codec)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) int64 {
		idx := int(p * float64(len(all)-1))
		return all[idx] / 1000
	}
	leg.Requests = len(all)
	leg.ThroughputRPS = float64(len(all)) / duration.Seconds()
	leg.SamplesPerSec = leg.ThroughputRPS * float64(len(samples))
	leg.P50Micros = pct(0.50)
	leg.P99Micros = pct(0.99)
	leg.P999Micros = pct(0.999)
	return &leg, nil
}
