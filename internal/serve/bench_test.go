package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"edem/internal/predicate"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// benchBundle is a moderately complex detector (3 vars, 3 clauses) so
// the evaluation loop does real comparison work per sample.
func benchBundle() *Bundle {
	pred := &predicate.Predicate{
		Name: "bench",
		Vars: []string{"a", "b", "c"},
		Clauses: []predicate.Clause{
			{{Var: "a", Index: 0, Op: predicate.GT, Threshold: 90},
				{Var: "b", Index: 1, Op: predicate.LE, Threshold: 10}},
			{{Var: "c", Index: 2, Op: predicate.GT, Threshold: 95}},
			{{Var: "a", Index: 0, Op: predicate.LE, Threshold: -90},
				{Var: "c", Index: 2, Op: predicate.NE, Threshold: 0}},
		},
	}
	return &Bundle{Version: BundleVersion, Detectors: []BundleEntry{
		{ID: "B1", Module: "M", Location: "Exit", Predicate: pred},
	}}
}

func benchSamples(n int) []Sample {
	rng := stats.NewRNG(7)
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{rng.Float64()*200 - 100, rng.Float64()*200 - 100, rng.Float64()*200 - 100}
	}
	return out
}

// benchServe runs the end-to-end request loop — client encode, HTTP
// round trip, server decode, evaluation, response — for one codec,
// reporting allocations.
func benchServe(b *testing.B, codec Codec) {
	s, err := NewServer(benchBundle(), "", Config{Registry: telemetry.New()})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	cl := &Client{Base: hs.URL, Codec: codec, MaxRetries: -1}
	samples := benchSamples(64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Evaluate(ctx, "B1", samples)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Evaluated != len(samples) {
			b.Fatalf("evaluated %d of %d", resp.Evaluated, len(samples))
		}
	}
	b.ReportMetric(float64(b.N*len(samples))/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkServeJSON(b *testing.B)   { benchServe(b, CodecJSON) }
func BenchmarkServeBinary(b *testing.B) { benchServe(b, CodecBinary) }

// BenchmarkBinaryCodec isolates the frame codec round trip from HTTP:
// encode a 64-sample request, decode it, encode the response — the
// per-request codec work the binary path adds over raw evaluation.
func BenchmarkBinaryCodec(b *testing.B) {
	samples := benchSamples(64)
	resp := &EvalResponse{Verdicts: make([]bool, 64), Evaluated: 64}
	var reqBuf, respBuf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		reqBuf, err = EncodeBinaryRequest(reqBuf[:0], "B1", samples, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		br, err := DecodeBinaryRequest(reqBuf)
		if err != nil {
			b.Fatal(err)
		}
		br.Release()
		respBuf, err = EncodeBinaryResponse(respBuf[:0], resp, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeJSON times the JSON evaluate decoder on a 512×8 body
// of serve-json512-sized values: the one-pass path, and encoding/json
// (the fallback, and the only decoder before it).
func BenchmarkDecodeJSON(b *testing.B) {
	rng := stats.NewRNG(11)
	samples := make([]Sample, 512)
	for i := range samples {
		samples[i] = make(Sample, 8)
		for j := range samples[i] {
			samples[i][j] = rng.Float64()*2e6 - 1e6
		}
	}
	body := appendJSONRequest(nil, "7Z-B2", samples)
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			br, err := DecodeJSONRequest(body)
			if err != nil {
				b.Fatal(err)
			}
			br.Release()
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req EvalRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
