package serve

// Shared HTTP plumbing: the managed listen/drain server loop, the one
// error body and JSON writer, and the one client call. The
// detector-serving runtime (Server.Serve, Client), the campaign fabric
// (internal/fabric coordinator and worker) and the `edem lifecycle`
// verbs all run on these, so drain semantics and error bodies stay
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
