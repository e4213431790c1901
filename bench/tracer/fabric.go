package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edem/bench/internal/report"
	"edem/internal/core"
	"edem/internal/fabric"
	"edem/internal/telemetry"
)

// runFabric runs one dataset's campaign through an in-process fabric
// coordinator and two workers, with the configurations `edem fabric
// serve` and `edem fabric work` build from their default flags. Each
// worker's HTTP client times its /fabric/v1 calls; execute time is the
// gap from a lease reply to that shard's upload, and idle time is the
// rest of the workers' running time: lease and upload round trips and
// polls for work.
func runFabric(ctx context.Context, rec *recorder, out *output, id string, opts core.Options, journal string) error {
	co := opts
	co.Journal = journal
	target, spec, err := core.SpecFor(id, co)
	if err != nil {
		return err
	}
	reg := telemetry.New()
	root := rec.begin("fabric", id, 0)
	s := rec.begin("coordinator-setup", id, root)
	coord, err := fabric.NewCoordinator(target, spec, co.CampaignConfig(id), fabric.CoordinatorConfig{
		LeaseTTL: 30 * time.Second, Linger: time.Second, Registry: reg,
	})
	rec.end(s)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- coord.Serve(sctx, ln) }()

	wo := opts
	wo.Journal = "" // workers stream to the coordinator; it owns the journal
	logs := make([]*callLog, 2)
	errs := make([]error, len(logs))
	running := make([]time.Duration, len(logs))
	var wg sync.WaitGroup
	for i := range logs {
		logs[i] = &callLog{base: http.DefaultTransport.(*http.Transport).Clone()}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			running[i], errs[i] = runWorker(sctx, rec, logs[i], root, id, wo, "http://"+ln.Addr().String(), fmt.Sprintf("w%d", i+1), reg)
		}(i)
	}
	wg.Wait()
	wall := rec.end(root)
	cancel()
	if err := <-served; err != nil {
		return fmt.Errorf("fabric coordinator: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	m := out.Metrics
	var lease, upload []float64
	var execute, idle time.Duration
	for i, l := range logs {
		idle += running[i]
		l.mu.Lock()
		calls := append([]call(nil), l.calls...)
		l.mu.Unlock()
		sort.Slice(calls, func(i, j int) bool { return calls[i].start.Before(calls[j].start) })
		for i, c := range calls {
			switch c.path {
			case completePath:
				upload = append(upload, c.dur().Seconds()*1e3)
				continue
			case leasePath:
				lease = append(lease, c.dur().Seconds()*1e3)
			default:
				continue
			}
			// A lease reply that granted a shard is followed by that
			// shard's upload; renewals happen in between.
			for _, n := range calls[i+1:] {
				if n.path == leasePath {
					break // the reply granted nothing
				}
				if n.path == completePath {
					execute += n.start.Sub(c.end)
					rec.add("execute", id, int(l.parent.Load()), c.end, n.start)
					break
				}
			}
		}
	}
	m["fabric.lease_ms"] = report.Median(lease)
	m["fabric.upload_ms"] = report.Median(upload)
	m["fabric.execute_s"] = execute.Seconds()
	m["fabric.idle_s"] = (idle - execute).Seconds()
	merged := reg.Counter("fabric.shards_merged").Value()
	m["fabric.dup_ratio"] = float64(reg.Counter("fabric.duplicate_shards").Value()) / float64(max(merged, 1))
	m["fabric.steals"] = float64(reg.Counter("fabric.steals").Value())
	m["fabric.wall_s"] = wall.Seconds()
	out.Metrics["fabric.coverage"] = report.Coverage(rec.snapshot(), "fabric")
	return nil
}

// runWorker sets up one worker and runs it to completion, each step in
// its own span, and returns how long it ran; the worker's HTTP calls
// become child spans.
func runWorker(ctx context.Context, rec *recorder, log *callLog, root int, id string, opts core.Options, url, name string, reg *telemetry.Registry) (time.Duration, error) {
	target, spec, err := core.SpecFor(id, opts)
	if err != nil {
		return 0, err
	}
	log.rec, log.op = rec, id
	s := rec.begin("worker-setup", id, root)
	log.parent.Store(int64(s))
	w, err := fabric.NewWorker(ctx, target, spec, opts.CampaignConfig(id), fabric.WorkerConfig{
		Coordinator: url, Name: name, Poll: 200 * time.Millisecond,
		HTTP: &http.Client{Transport: log}, Registry: reg,
	})
	rec.end(s)
	if err != nil {
		return 0, err
	}
	r := rec.begin("worker-run", id, root)
	log.parent.Store(int64(r))
	err = w.Run(ctx)
	return rec.end(r), err
}

// callLog is a worker's RoundTripper: it forwards every call and keeps
// its path and timing.
type callLog struct {
	base   http.RoundTripper
	rec    *recorder
	op     string
	parent atomic.Int64

	mu    sync.Mutex
	calls []call
}

type call struct {
	path       string
	start, end time.Time
}

func (c call) dur() time.Duration { return c.end.Sub(c.start) }

func (l *callLog) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := l.base.RoundTrip(req)
	end := time.Now()
	l.rec.add(req.URL.Path, l.op, int(l.parent.Load()), start, end)
	l.mu.Lock()
	l.calls = append(l.calls, call{path: req.URL.Path, start: start, end: end})
	l.mu.Unlock()
	return resp, err
}

const (
	leasePath    = "/fabric/v1/lease"
	completePath = "/fabric/v1/complete"
)
