package serve

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker state.
type BreakerState int

// The three breaker states. Closed admits traffic, Open rejects it,
// HalfOpen admits a single probe at a time to test recovery.
const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

// String returns the conventional lowercase spelling.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes one detector's circuit breaker. The zero value
// selects the defaults documented on each field.
type BreakerConfig struct {
	// Threshold is the number of consecutive evaluation failures
	// (panics or errors) that trips the breaker open (default 5).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

// Breaker is a per-detector circuit breaker: it trips open after
// Threshold consecutive evaluation failures, rejects evaluation while
// open, admits a single probe at a time after Cooldown (half-open),
// and closes again on the first successful probe. A failed probe
// re-opens the circuit and restarts the cooldown.
//
// All methods are safe for concurrent use. Outcome reports that arrive
// after the breaker has moved on (e.g. a success recorded while the
// circuit is already open) are ignored — late reports must not mask a
// trip.
type Breaker struct {
	cfg BreakerConfig
	// now is the clock, injectable by tests.
	now func() time.Time
	// onTransition, when non-nil, observes every state change; called
	// with b.mu held, so it must not call back into the breaker.
	onTransition func(from, to BreakerState)

	mu       sync.Mutex
	state    BreakerState
	fails    int // consecutive failures while closed
	probing  bool
	openedAt time.Time
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), now: time.Now}
}

// State returns the current state, surfacing the open→half-open
// transition that Allow would perform (so status endpoints see
// "half-open" once the cooldown has elapsed, without consuming the
// probe slot).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return HalfOpen
	}
	return b.state
}

// Allow reports whether an evaluation may proceed. While open it
// returns false until the cooldown elapses, then transitions to
// half-open and admits exactly one in-flight probe at a time; every
// admitted caller must report the outcome via Record.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.transition(HalfOpen)
		b.probing = true
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Record reports the outcome of an evaluation previously admitted by
// Allow.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.trip()
		}
	case HalfOpen:
		b.probing = false
		if !ok {
			b.trip()
			return
		}
		b.transition(Closed)
		b.fails = 0
	case Open:
		// Late report from before the trip; the circuit has moved on.
	}
}

// Cancel releases an admission obtained from Allow without reporting
// an outcome — for requests that were shed or timed out before the
// detector ever evaluated. It frees the half-open probe slot but moves
// no counters: infrastructure pressure is neither detector success nor
// detector failure.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// trip opens the circuit and restarts the cooldown. Callers hold b.mu.
func (b *Breaker) trip() {
	b.transition(Open)
	b.openedAt = b.now()
	b.fails = 0
	b.probing = false
}

// transition moves to state to, notifying the observer. Callers hold
// b.mu.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}
