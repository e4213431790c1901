package serve

// Shared HTTP plumbing: the managed listen/drain server loop, the one
// error body and JSON writer, the one client call and the
// deadline-aware retry policy. The detector-serving runtime
// (Server.Serve, Client), the campaign fabric (internal/fabric
// coordinator and worker) and the `edem lifecycle` verbs all run on
// these, so drain semantics, error bodies and retry behaviour stay
// identical across the services.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON writes v as the JSON body of a code response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// StatusError is a non-2xx reply to a Do call. Msg is the server's
// ErrorResponse.Error, or the raw body when it sent none. Callers
// decide from Code which statuses are worth another attempt.
type StatusError struct {
	Method string
	Path   string
	Code   int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s %s: %d %s: %s", e.Method, e.Path, e.Code, http.StatusText(e.Code), e.Msg)
}

// maxReply bounds the reply body Do reads.
const maxReply = 16 << 20

// Do sends req through hc (nil means http.DefaultClient) and reads the
// reply, up to maxReply bytes. A non-2xx reply returns a *StatusError.
// A 2xx reply returns its body and, when out is non-nil, decodes it
// into out as JSON.
func Do(hc *http.Client, req *http.Request, out any) ([]byte, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	res, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, maxReply))
	if err != nil {
		return nil, fmt.Errorf("%s %s: read reply: %w", req.Method, req.URL.Path, err)
	}
	if res.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(data))
		var er ErrorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return nil, &StatusError{Method: req.Method, Path: req.URL.Path, Code: res.StatusCode, Msg: msg}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("%s %s: decode reply: %w", req.Method, req.URL.Path, err)
		}
	}
	return data, nil
}

// HTTPConfig tunes RunHTTP. The zero value selects the defaults
// documented on each field.
type HTTPConfig struct {
	// DrainTimeout bounds the graceful shutdown: after this long,
	// still-unfinished requests are abandoned (default 10s).
	DrainTimeout time.Duration
	// OnDrain, when non-nil, is called once when draining begins —
	// before Shutdown stops accepting — so the handler can start
	// refusing new work (health checks flip, admission closes).
	OnDrain func()
	// Logf, when non-nil, receives drain progress lines.
	Logf func(format string, args ...any)
}

// RunHTTP serves handler on ln until ctx is cancelled, then drains:
// stop accepting, close connections that have not sent a request, let
// in-flight requests finish (bounded by DrainTimeout). Returns nil on a
// clean drain, the serve error if the listener fails first.
func RunHTTP(ctx context.Context, ln net.Listener, handler http.Handler, cfg HTTPConfig) error {
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       time.Minute,
	}
	// http.Server.Shutdown treats a connection that has sent no request
	// yet as active for its first 5 s, which would hold any shorter
	// drain open; such connections are tracked and closed when draining
	// starts, and ones accepted afterwards are closed on arrival.
	silent := &silentConns{conns: make(map[net.Conn]struct{})}
	hs.ConnState = silent.track
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	if cfg.OnDrain != nil {
		cfg.OnDrain()
	}
	cfg.Logf("serve: draining (timeout %v)", cfg.DrainTimeout)
	silent.drain()
	dctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	cfg.Logf("serve: drained cleanly")
	return nil
}

// silentConns tracks a server's connections that are still in
// http.StateNew: accepted, no request read yet.
type silentConns struct {
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
}

func (s *silentConns) track(c net.Conn, state http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if state != http.StateNew {
		delete(s.conns, c)
		return
	}
	if s.draining {
		c.Close()
		return
	}
	s.conns[c] = struct{}{}
}

// drain closes every tracked connection and every one accepted later.
func (s *silentConns) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	for c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

// Backoff is the shared bounded-exponential retry policy: the first
// retry waits Base, each further retry doubles, capped at Max, for at
// most MaxRetries additional attempts. Every wait is deadline-aware —
// Retry never sleeps past the context deadline just to fail afterwards.
type Backoff struct {
	// MaxRetries is the number of additional attempts after the first;
	// 0 defaults to 3, negative means none.
	MaxRetries int
	// Base is the delay before the first retry (default 50ms).
	Base time.Duration
	// Max caps the doubling (default 2s).
	Max time.Duration
}

func (b Backoff) maxRetries() int {
	if b.MaxRetries < 0 {
		return 0
	}
	if b.MaxRetries == 0 {
		return 3
	}
	return b.MaxRetries
}

// Delay returns the wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	return d
}

// Retry runs fn until it succeeds, fails permanently, the context
// expires or the retry budget runs out. permanent, when non-nil,
// classifies errors not worth another attempt (they return
// immediately, unwrapped). op prefixes the terminal error messages.
func (b Backoff) Retry(ctx context.Context, op string, permanent func(error) bool, fn func() error) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		lastErr = err
		if permanent != nil && permanent(err) {
			return err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%s: %w (last error: %v)", op, ctx.Err(), lastErr)
		}
		if attempt >= b.maxRetries() {
			return fmt.Errorf("%s: %d attempts exhausted: %w", op, attempt+1, lastErr)
		}
		delay := b.Delay(attempt)
		// Deadline-aware: when the remaining context budget cannot cover
		// the sleep, give up now instead of sleeping into the deadline.
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < delay {
			return fmt.Errorf("%s: deadline too close to retry: %w", op, lastErr)
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("%s: %w (last error: %v)", op, ctx.Err(), lastErr)
		}
	}
}
