package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
)

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

// Client is a client for the serving runtime. It makes one attempt
// per call over http.DefaultClient, with the deadline of the call's
// context, and returns a non-2xx reply as a *StatusError: a shed (429)
// is the load generator's measurement, not something to hide behind a
// retry. Safe for concurrent use.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// Codec selects the evaluate wire format (default CodecJSON). Both
	// codecs yield bit-identical verdicts; binary skips the JSON
	// formatting and parsing costs on large batches.
	Codec Codec
}

// Evaluate posts one batch of samples to the named detector over the
// client's codec. The server answers an evaluation in the request's
// codec (error bodies stay JSON).
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
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if c.Codec == CodecBinary {
		req.Header.Set("Content-Type", ContentTypeBinary)
		data, err := Do(nil, req, nil)
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
	if _, err := Do(nil, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
