package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// StatusError is a non-2xx response from the serving runtime. Code 429
// (shed) and 503 (draining / circuit open under fail-closed) are
// retryable; the client retries them automatically.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: server returned %d: %s", e.Code, e.Msg)
}

// retryable reports whether the status is worth another attempt:
// shedding and transient unavailability are; client errors are not.
func retryable(code int) bool {
	switch code {
	case http.StatusTooManyRequests,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return code >= 500 && code != http.StatusInternalServerError
}

// Codec selects the wire format a Client speaks to the serving runtime.
type Codec int

const (
	// CodecJSON is the default human-debuggable JSON transport (hex
	// bit-pattern escapes carry NaN/±Inf).
	CodecJSON Codec = iota
	// CodecBinary is the columnar binary batch frame: raw IEEE-754 bit
	// patterns, no per-sample parsing cost, exact by construction.
	CodecBinary
)

// String returns the flag spelling of the codec.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return "json"
}

// ParseCodec parses the flag spelling.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "json":
		return CodecJSON, nil
	case "binary":
		return CodecBinary, nil
	default:
		return 0, fmt.Errorf("serve: unknown codec %q (want json or binary)", s)
	}
}

// Client is a retrying client for the serving runtime, built for batch
// re-validation against a remote service: transient failures (network
// errors, sheds, drains) retry with bounded exponential backoff, and
// every retry is deadline-aware — the client never sleeps past the
// context deadline just to fail afterwards. Safe for concurrent use.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client; nil uses http.DefaultClient
	// (per-call deadlines come from the context).
	HTTP *http.Client
	// Codec selects the evaluate wire format (default CodecJSON). Both
	// codecs yield bit-identical verdicts; binary skips the JSON
	// formatting and parsing costs on large batches.
	Codec Codec
	// MaxRetries is the number of additional attempts after the first
	// (default 3).
	MaxRetries int
	// Backoff is the delay before the first retry, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 2s).
	MaxBackoff time.Duration
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// policy returns the client's shared Backoff retry policy.
func (c *Client) policy() Backoff {
	return Backoff{MaxRetries: c.MaxRetries, Base: c.Backoff, Max: c.MaxBackoff}
}

// permanentStatus classifies errors not worth another attempt: any
// non-retryable HTTP status (client errors, straight 500s).
func permanentStatus(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && !retryable(se.Code)
}

// Evaluate posts one batch of samples to the named detector over the
// client's codec, retrying transient failures until ctx expires or the
// retry budget runs out.
func (c *Client) Evaluate(ctx context.Context, detector string, samples []Sample) (*EvalResponse, error) {
	var body []byte
	if c.Codec == CodecBinary {
		var err error
		if body, err = EncodeBinaryRequest(nil, detector, samples, 0, 0); err != nil {
			return nil, err
		}
	} else {
		body = appendJSONRequest(nil, detector, samples)
	}
	var out *EvalResponse
	err := c.policy().Retry(ctx, "serve: evaluate", permanentStatus, func() error {
		resp, err := c.post(ctx, "/v1/evaluate", body)
		if err != nil {
			return err
		}
		out = resp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EvaluateChunks re-validates a large batch by splitting it into
// chunks of at most chunk samples (default 256), evaluating each with
// the full retry policy, and merging the responses — alarms are
// re-indexed into the caller's 1-based sample numbering.
func (c *Client) EvaluateChunks(ctx context.Context, detector string, samples []Sample, chunk int) (*EvalResponse, error) {
	if chunk <= 0 {
		chunk = 256
	}
	out := &EvalResponse{Detector: detector}
	for lo := 0; lo < len(samples); lo += chunk {
		hi := lo + chunk
		if hi > len(samples) {
			hi = len(samples)
		}
		resp, err := c.Evaluate(ctx, detector, samples[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("serve: chunk [%d,%d): %w", lo, hi, err)
		}
		if resp.Degraded != "" && out.Degraded == "" {
			out.Degraded = resp.Degraded
		}
		out.Verdicts = append(out.Verdicts, resp.Verdicts...)
		for _, a := range resp.Alarms {
			out.Alarms = append(out.Alarms, lo+a)
		}
		out.Evaluated += resp.Evaluated
	}
	return out, nil
}

// Health fetches /healthz; it does not retry (health checks must
// reflect the instant, not the trend).
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	res, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(io.LimitReader(res.Body, 1<<16)).Decode(&h); err != nil {
		return nil, fmt.Errorf("serve: health: %w", err)
	}
	return &h, nil
}

// post performs one attempt and maps non-2xx statuses to StatusError.
// The response codec follows the response Content-Type (the server
// mirrors the request codec for evaluations; errors stay JSON).
func (c *Client) post(ctx context.Context, path string, body []byte) (*EvalResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if c.Codec == CodecBinary {
		req.Header.Set("Content-Type", ContentTypeBinary)
	} else {
		req.Header.Set("Content-Type", ContentTypeJSON)
	}
	res, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, maxRequestBody))
	if err != nil {
		return nil, err
	}
	if res.StatusCode/100 != 2 {
		var er ErrorResponse
		msg := string(data)
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return nil, &StatusError{Code: res.StatusCode, Msg: msg}
	}
	if strings.HasPrefix(res.Header.Get("Content-Type"), ContentTypeBinary) {
		out, _, err := DecodeBinaryResponse(data)
		if err != nil {
			return nil, fmt.Errorf("serve: decode response: %w", err)
		}
		return out, nil
	}
	var out EvalResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("serve: decode response: %w", err)
	}
	return &out, nil
}
