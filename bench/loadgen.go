package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"edem/bench/internal/report"
)

// traffic is what a load phase sends: pre-encoded evaluate bodies and,
// for each, the verdicts a correct server returns.
type traffic struct {
	url         string
	contentType string
	binary      bool
	bodies      [][]byte
	want        [][]bool
	next        int // first body of the next phase, so phases walk the traffic in order
}

// loadgen sends traffic over a fixed set of keep-alive connections, one
// per client, so the load on the server never comes from more
// connections than it has CPUs.
type loadgen struct {
	clients []*http.Client
}

func newLoadgen(conns int) *loadgen {
	g := &loadgen{}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// request is one request's timeline, as offsets from the phase start.
// wrote and first are set only in traced phases: the moment the
// request was fully written and the moment the first response byte
// arrived, which bracket the server's share of the latency.
type request struct {
	due, sent, wrote, first, done time.Duration
	body                          int
	status                        int
	alarms                        int
	err                           error
}

// latency is the request's time from send to the end of the response;
// a failed request never met any latency target, so it counts as +Inf.
func (r *request) latency() float64 {
	if r.err != nil {
		return math.Inf(1)
	}
	return float64(r.done-r.sent) / 1e3
}

// phase is the outcome of one load phase.
type phase struct {
	duration time.Duration
	reqs     []request
	failed   int
}

// keptUp reports whether an open-loop phase achieved at least 99% of
// its offered rate. Below that it measured a lighter load than it
// claims. The phase's requests count over its duration plus how far the
// generator lagged its schedule, taken as twice its median lateness: a
// generator too slow for the rate falls behind steadily, so its median
// request is half as late as its last. A stall of the machine near the
// phase's end delays only its last requests, which the time to the last
// response would count in full. Judged by that time, stalls of 20 to
// 160 ms on a shared 2-CPU machine left windows of serve-bin64 short in
// three runs of ten, although the generator caught up after every one.
func keptUp(rate float64, p *phase) (achieved float64, ok bool) {
	took := p.duration
	if len(p.reqs) > 0 {
		took += max(0, time.Duration(2*report.Median(p.lateness())*1e3))
	}
	achieved = float64(len(p.reqs)) / took.Seconds()
	return achieved, achieved >= 0.99*rate
}

// latencies returns every request's latency in microseconds.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.reqs))
	for i := range p.reqs {
		out[i] = p.reqs[i].latency()
	}
	return out
}

// lateness returns how late the generator sent each request, in
// microseconds.
func (p *phase) lateness() []float64 {
	out := make([]float64, len(p.reqs))
	for i, r := range p.reqs {
		out[i] = float64(r.sent-r.due) / 1e3
	}
	return out
}

// openLoop sends rate requests per second for duration, on schedule
// whether or not earlier requests have finished: request i is due at
// start + i/rate. A free connection sends a request as soon as it is
// due, so a slow server makes later requests late rather than making
// the load lighter. Latency is timed from the actual send: Go's timers
// overshoot by far more than a request takes, and the lateness this
// costs the generator is reported separately.
func (g *loadgen) openLoop(t *traffic, rate float64, duration time.Duration, trace bool) *phase {
	n := int(rate * duration.Seconds())
	p := &phase{duration: duration, reqs: make([]request, n)}
	interval := float64(time.Second) / rate
	first := t.next
	t.next = (t.next + n) % len(t.bodies)
	var next atomic.Int64
	start := time.Now()
	g.run(func(_ int, c *http.Client) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			r := &p.reqs[i]
			r.due = time.Duration(float64(i) * interval)
			if d := r.due - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			r.body = (first + i) % len(t.bodies)
			t.send(c, start, r, trace)
		}
	})
	p.finish()
	return p
}

// closedLoop keeps one request outstanding per connection for
// duration: the saturation throughput of the server on that many
// connections. Client i sends bodies i, i+n, i+2n, … after the traffic's
// position, so n clients share the traffic without repeating a body.
func (g *loadgen) closedLoop(t *traffic, duration time.Duration) *phase {
	p := &phase{duration: duration}
	var mu sync.Mutex
	start := time.Now()
	g.run(func(i int, c *http.Client) {
		var mine []request
		for k := 0; time.Since(start) < duration; k++ {
			r := request{body: (t.next + k*len(g.clients) + i) % len(t.bodies)}
			r.due = time.Since(start)
			t.send(c, start, &r, false)
			mine = append(mine, r)
		}
		mu.Lock()
		p.reqs = append(p.reqs, mine...)
		mu.Unlock()
	})
	t.next = (t.next + len(p.reqs)) % len(t.bodies)
	p.finish()
	return p
}

// run calls fn once per client concurrently, with the client's index,
// and waits for all of them.
func (g *loadgen) run(fn func(i int, c *http.Client)) {
	var wg sync.WaitGroup
	for i, c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
}

func (p *phase) finish() {
	for i := range p.reqs {
		if p.reqs[i].err != nil {
			p.failed++
		}
	}
}

// send posts one body, reads the whole response and checks it. Any
// transport error, non-200 status (429 shed and 504 deadline included)
// or wrong verdict marks the request failed.
func (t *traffic) send(c *http.Client, start time.Time, r *request, trace bool) {
	ctx := context.Background()
	// The hooks run on the transport's own goroutines, so they record
	// under a lock and the times are copied out once the response is in.
	var hooks struct {
		sync.Mutex
		wrote, first time.Duration
	}
	if trace {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) {
				hooks.Lock()
				hooks.wrote = time.Since(start)
				hooks.Unlock()
			},
			GotFirstResponseByte: func() {
				hooks.Lock()
				hooks.first = time.Since(start)
				hooks.Unlock()
			},
		})
		defer func() {
			hooks.Lock()
			r.wrote, r.first = hooks.wrote, hooks.first
			hooks.Unlock()
		}()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, bytes.NewReader(t.bodies[r.body]))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", t.contentType)
	r.sent = time.Since(start)
	resp, err := c.Do(req)
	if err != nil {
		r.done = time.Since(start)
		r.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Since(start)
	r.status = resp.StatusCode
	switch {
	case err != nil:
		r.err = err
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	default:
		r.alarms, r.err = t.check(data, t.want[r.body])
	}
}

// check decodes a response body and compares it with the expected
// verdicts, returning the alarm count.
func (t *traffic) check(data []byte, want []bool) (int, error) {
	var resp *response
	if t.binary {
		var err error
		if resp, err = decodeBinaryResponse(data); err != nil {
			return 0, err
		}
	} else {
		resp = &response{}
		if err := json.Unmarshal(data, resp); err != nil {
			return 0, fmt.Errorf("json response: %w", err)
		}
	}
	return len(resp.Alarms), resp.check(want)
}
