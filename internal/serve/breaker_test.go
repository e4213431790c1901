package serve

import (
	"testing"
	"time"
)

// fakeClock drives a breaker through time without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(cfg BreakerConfig) (*Breaker, *fakeClock, *[]string) {
	b := NewBreaker(cfg)
	clk := &fakeClock{t: time.Unix(0, 0)}
	b.now = clk.now
	var transitions []string
	b.onTransition = func(from, to BreakerState) {
		transitions = append(transitions, from.String()+"->"+to.String())
	}
	return b, clk, &transitions
}

func TestBreakerTripHalfOpenClose(t *testing.T) {
	b, clk, transitions := newTestBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second})

	// Failures below the threshold keep the circuit closed; a success
	// resets the consecutive count.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker must allow")
		}
		b.Record(false)
	}
	b.Record(true)
	for i := 0; i < 2; i++ {
		b.Record(false)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed (success reset the streak)", b.State())
	}

	// Third consecutive failure trips.
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker must reject")
	}

	// Cooldown elapses: one probe at a time.
	clk.advance(time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open after cooldown", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker must admit the first probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker must admit only one in-flight probe")
	}

	// One successful probe closes the circuit.
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after the successful probe", b.State())
	}
	if !b.Allow() || !b.Allow() {
		t.Fatal("closed breaker must allow every caller")
	}

	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(*transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", *transitions, want)
	}
	for i := range want {
		if (*transitions)[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", *transitions, want)
		}
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk, _ := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second})
	b.Allow()
	b.Record(false) // trip
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe must be admitted")
	}
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open after failed probe", b.State())
	}
	// The cooldown restarted at the failed probe.
	clk.advance(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("cooldown must restart after a failed probe")
	}
	clk.advance(500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe must be admitted after the restarted cooldown")
	}
}

func TestBreakerCancelReleasesProbe(t *testing.T) {
	b, clk, _ := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second})
	b.Allow()
	b.Record(false)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe must be admitted")
	}
	b.Cancel() // probe shed/timed out: no outcome
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open after cancel", b.State())
	}
	if !b.Allow() {
		t.Fatal("cancel must release the probe slot")
	}
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

func TestBreakerLateReportsIgnored(t *testing.T) {
	b, _, _ := newTestBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Minute})
	b.Allow()
	b.Allow()
	b.Record(false)
	b.Record(false) // trips
	// A success admitted before the trip reports late: must not close.
	b.Record(true)
	if b.State() != Open {
		t.Fatalf("state = %v, want open (late success ignored)", b.State())
	}
}
