package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"edem/bench/internal/report"
)

// testTraffic is one JSON body whose correct answer flags the first of
// two samples.
func testTraffic(url string) *traffic {
	return &traffic{
		url:         url,
		contentType: "application/json",
		bodies:      [][]byte{encodeJSON("D", [][]float64{{1}, {2}})},
		want:        [][]bool{{true, false}},
	}
}

const okBody = `{"detector":"D","verdicts":[true,false],"alarms":[1],"evaluated":2,"bundle_generation":1}`

// server answers every request correctly after delay; hold, when set,
// decides per request (counted from 0) how long to stall it instead,
// and shed which requests get a 429.
func server(t *testing.T, delay time.Duration, hold func(n int64) time.Duration, shed func(n int64) bool) *httptest.Server {
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := count.Add(1) - 1
		if shed != nil && shed(n) {
			http.Error(w, `{"error":"admission queue full"}`, http.StatusTooManyRequests)
			return
		}
		d := delay
		if hold != nil {
			d = hold(n)
		}
		time.Sleep(d)
		_, _ = w.Write([]byte(okBody))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestOpenLoopKeepsRateAndTimesFromSend(t *testing.T) {
	srv := server(t, 2*time.Millisecond, nil, nil)
	g := newLoadgen(2)
	defer g.close()
	p := g.openLoop(testTraffic(srv.URL), 200, 500*time.Millisecond, false)
	if len(p.reqs) != 100 || p.failed != 0 {
		t.Fatalf("%d requests, %d failed; want 100, 0", len(p.reqs), p.failed)
	}
	if achieved, ok := keptUp(200, p); !ok || achieved < 198 {
		t.Errorf("achieved %.1f req/s of 200", achieved)
	}
	lat := report.Median(p.latencies())
	if lat < 2000 || lat > 50000 {
		t.Errorf("median latency %.0fµs for a 2ms server", lat)
	}
	if late := report.Median(p.lateness()); late < 0 || late > 20000 {
		t.Errorf("median lateness %.0fµs", late)
	}
}

// A stalled request makes the requests behind it late, but each is
// still timed from its own send: lateness and latency stay apart.
func TestOpenLoopSeparatesLatenessFromLatency(t *testing.T) {
	hold := func(n int64) time.Duration {
		if n == 0 {
			return 100 * time.Millisecond
		}
		return time.Millisecond
	}
	srv := server(t, 0, hold, nil)
	g := newLoadgen(1)
	defer g.close()
	p := g.openLoop(testTraffic(srv.URL), 100, 500*time.Millisecond, false)
	if p.failed != 0 {
		t.Fatalf("%d failed", p.failed)
	}
	r := p.reqs[5] // due at 50ms, sent only once request 0 returned
	if late := r.sent - r.due; late < 40*time.Millisecond {
		t.Errorf("request 5 was %v late, want >= 40ms", late)
	}
	if lat := r.latency(); lat > 40000 {
		t.Errorf("request 5 latency %.0fµs includes its wait to be sent", lat)
	}
	if lat := p.reqs[0].latency(); lat < 100000 {
		t.Errorf("request 0 latency %.0fµs, want >= 100ms", lat)
	}
}

func TestShedRequestFailsAtInfiniteLatency(t *testing.T) {
	srv := server(t, time.Millisecond, nil, func(n int64) bool { return n%4 == 3 })
	g := newLoadgen(2)
	defer g.close()
	p := g.openLoop(testTraffic(srv.URL), 200, 200*time.Millisecond, false)
	if p.failed != 10 {
		t.Fatalf("%d of %d failed, want 10", p.failed, len(p.reqs))
	}
	lat := p.latencies()
	if inf := report.Percentile(lat, 90); !math.IsInf(inf, 1) {
		t.Errorf("p90 with a quarter shed = %v, want +Inf", inf)
	}
	if med := report.Percentile(lat, 50); math.IsInf(med, 0) {
		t.Error("median should still be finite")
	}
	var shed int
	for _, r := range p.reqs {
		if r.status == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed != 10 {
		t.Errorf("%d requests recorded as 429, want 10", shed)
	}
}

// A server too slow for the offered rate leaves the open loop short of
// its schedule.
func TestSlowServerFallsShort(t *testing.T) {
	srv := server(t, 20*time.Millisecond, nil, nil)
	g := newLoadgen(1)
	defer g.close()
	p := g.openLoop(testTraffic(srv.URL), 100, 100*time.Millisecond, false)
	if achieved, ok := keptUp(100, p); ok {
		t.Fatalf("achieved %.1f req/s of 100 through a 20ms server on one connection", achieved)
	}
}

// window is a one-second fixed-rate window of 100 requests at 100 req/s,
// each sent late by late(i).
func window(late func(i int) time.Duration) *phase {
	p := &phase{duration: time.Second, reqs: make([]request, 100)}
	for i := range p.reqs {
		r := &p.reqs[i]
		r.due = time.Duration(i) * 10 * time.Millisecond
		r.sent = r.due + late(i)
		r.done = r.sent + time.Millisecond
	}
	return p
}

func lateBy(d time.Duration) func(int) time.Duration { return func(int) time.Duration { return d } }

// A generator that falls behind steadily is short of the rate by its
// lag at the end; one that a stall delays only at the end is not.
func TestKeptUpJudgesTheMedianLag(t *testing.T) {
	behind := window(func(i int) time.Duration { return time.Duration(i) * 300 * time.Microsecond })
	if achieved, ok := keptUp(100, behind); ok || achieved > 98 {
		t.Errorf("30 ms behind at the end: achieved %.1f req/s of 100, kept up %v", achieved, ok)
	}
	stalled := window(func(i int) time.Duration {
		if i >= 95 {
			return 150 * time.Millisecond
		}
		return 500 * time.Microsecond
	})
	if achieved, ok := keptUp(100, stalled); !ok {
		t.Errorf("a stall over the last 5 requests: achieved %.1f req/s of 100", achieved)
	}
}

// A window the generator lagged through is run again; its requests are
// counted, and the run stays correct.
func TestShortWindowIsRunAgain(t *testing.T) {
	w := newWorkload()
	redos := 0
	lates := []time.Duration{150 * time.Millisecond, 2 * time.Millisecond}
	p, err := w.steadyWindow(100, &redos, func() (*phase, error) {
		p := window(lateBy(lates[0]))
		lates = lates[1:]
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if late := p.reqs[0].sent - p.reqs[0].due; late != 2*time.Millisecond || redos != 1 {
		t.Errorf("kept a window %v late after %d redos, want 2ms after 1", late, redos)
	}
	if !w.Correct || w.Attempted != 200 || w.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d, want true 200 0", w.Correct, w.Attempted, w.Failed)
	}
}

// Once the redos are spent a short window is kept; its requests were
// answered correctly, so none counts as failed.
func TestRedosRunOut(t *testing.T) {
	w := newWorkload()
	redos := 0
	if _, err := w.steadyWindow(100, &redos, func() (*phase, error) { return window(lateBy(150 * time.Millisecond)), nil }); err != nil {
		t.Fatal(err)
	}
	if redos != maxRedos {
		t.Errorf("%d redos, want %d", redos, maxRedos)
	}
	if !w.Correct || w.Attempted != 100*(maxRedos+1) || w.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d, want true %d 0", w.Correct, w.Attempted, w.Failed, 100*(maxRedos+1))
	}
}

// Closed-loop clients walk the traffic together: until it wraps around,
// no body is sent twice, and each client takes its own share.
func TestClosedLoopClientsShareTheTraffic(t *testing.T) {
	srv := server(t, time.Millisecond, nil, nil)
	tr := testTraffic(srv.URL)
	for len(tr.bodies) < 1000 {
		tr.bodies = append(tr.bodies, tr.bodies[0])
		tr.want = append(tr.want, tr.want[0])
	}
	g := newLoadgen(2)
	defer g.close()
	p := g.closedLoop(tr, 50*time.Millisecond)
	if p.failed != 0 || len(p.reqs) < 4 || len(p.reqs) >= len(tr.bodies) {
		t.Fatalf("%d requests, %d failed", len(p.reqs), p.failed)
	}
	sent := make(map[int]bool)
	var odd int
	for _, r := range p.reqs {
		if sent[r.body] {
			t.Fatalf("body %d sent twice", r.body)
		}
		sent[r.body] = true
		odd += r.body % 2
	}
	if odd == 0 || odd == len(p.reqs) {
		t.Errorf("%d of %d bodies odd: one client sent everything", odd, len(p.reqs))
	}
}

func TestWrongVerdictFails(t *testing.T) {
	srv := server(t, 0, nil, nil)
	tr := testTraffic(srv.URL)
	tr.want = [][]bool{{false, false}}
	g := newLoadgen(1)
	defer g.close()
	if p := g.closedLoop(tr, 50*time.Millisecond); len(p.reqs) == 0 || p.failed != len(p.reqs) {
		t.Errorf("%d of %d requests with a wrong verdict failed", p.failed, len(p.reqs))
	}
}
