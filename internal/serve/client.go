package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"
)

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

// post performs one attempt; Do maps non-2xx statuses to StatusError.
// The server answers an evaluation in the request's codec (error
// bodies stay JSON).
func (c *Client) post(ctx context.Context, path string, body []byte) (*EvalResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if c.Codec == CodecBinary {
		req.Header.Set("Content-Type", ContentTypeBinary)
		data, err := Do(c.HTTP, req, nil)
		if err != nil {
			return nil, err
		}
		out, _, err := DecodeBinaryResponse(data)
		if err != nil {
			return nil, fmt.Errorf("serve: decode response: %w", err)
		}
		return out, nil
	}
	req.Header.Set("Content-Type", ContentTypeJSON)
	var out EvalResponse
	if _, err := Do(c.HTTP, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
