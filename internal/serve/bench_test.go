package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"edem/internal/lifecycle"
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
// reporting allocations. With shadow, the server runs a lifecycle
// monitor and holds the bundle as its own shadow candidate, so every
// request also pays the mirror evaluation and the verdict diff
// (lifecycle dual evaluation with zero disagreements).
func benchServe(b *testing.B, codec wireCodec, shadow bool) {
	reg := telemetry.New()
	cfg := Config{Registry: reg}
	if shadow {
		mon, err := lifecycle.NewMonitor(lifecycle.MonitorConfig{Dir: b.TempDir(), Registry: reg})
		if err != nil {
			b.Fatal(err)
		}
		defer mon.Close()
		cfg.Monitor = mon
	}
	s, err := NewServer(benchBundle(), "", cfg)
	if err != nil {
		b.Fatal(err)
	}
	if shadow {
		path := filepath.Join(b.TempDir(), "bundle.json")
		if err := benchBundle().WriteFile(path); err != nil {
			b.Fatal(err)
		}
		if _, err := s.LoadShadow(path); err != nil {
			b.Fatal(err)
		}
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	cl := &testClient{base: hs.URL, codec: codec}
	samples := benchSamples(64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.evaluate(ctx, "B1", samples)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Evaluated != len(samples) {
			b.Fatalf("evaluated %d of %d", resp.Evaluated, len(samples))
		}
	}
	b.ReportMetric(float64(b.N*len(samples))/b.Elapsed().Seconds(), "samples/s")
	if shadow {
		// The mirror runs after the response is written; Close waits for
		// the handlers, so every request's mirror has been counted.
		b.StopTimer()
		hs.Close()
		if reg.Counter("lifecycle.shadow_evals").Value() == 0 {
			b.Fatal("lifecycle.shadow_evals = 0: no request was mirrored onto the shadow candidate")
		}
	}
}

func BenchmarkServeJSON(b *testing.B)         { benchServe(b, codecJSON, false) }
func BenchmarkServeBinary(b *testing.B)       { benchServe(b, codecBinary, false) }
func BenchmarkServeJSONShadow(b *testing.B)   { benchServe(b, codecJSON, true) }
func BenchmarkServeBinaryShadow(b *testing.B) { benchServe(b, codecBinary, true) }

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
		reqBuf, err = encodeBinaryRequest(reqBuf[:0], "B1", samples, 0, 0)
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

// BenchmarkDecodeJSON times the JSON evaluate decoder on 512×8 bodies:
// the one-pass path, and encoding/json (the fallback, and the only
// decoder before it). The wide body holds random 17-digit floats, every
// one past the exact number path; the campaign-shaped body holds what
// serve-json512 sends, small integer state values with about 3% of
// 17-digit ones from flipped high bits.
func BenchmarkDecodeJSON(b *testing.B) {
	rng := stats.NewRNG(11)
	wide := make([]Sample, 512)
	campaign := make([]Sample, 512)
	for i := range wide {
		wide[i], campaign[i] = make(Sample, 8), make(Sample, 8)
		for j := range wide[i] {
			wide[i][j] = rng.Float64()*2e6 - 1e6
			campaign[i][j] = float64(rng.Intn(4097))
			if rng.Intn(37) == 0 {
				campaign[i][j] = rng.Float64() * 1e19
			}
		}
	}
	for _, body := range []struct {
		name    string
		samples []Sample
	}{{"wide", wide}, {"campaign", campaign}} {
		data := appendJSONRequest(nil, "7Z-B2", body.samples)
		b.Run(body.name+"/fast", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				br, err := DecodeJSONRequest(data)
				if err != nil {
					b.Fatal(err)
				}
				br.Release()
			}
		})
		b.Run(body.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				var req EvalRequest
				if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeEvalResponse times a 512-verdict JSON evaluate
// response: the append encoder the server runs, and the encoding/json
// reflection it replaced.
func BenchmarkEncodeEvalResponse(b *testing.B) {
	resp := &EvalResponse{Detector: "7Z-B2", Evaluated: 512, BundleGeneration: 1}
	rng := stats.NewRNG(12)
	for i := 0; i < 512; i++ {
		v := rng.Intn(4) == 0
		resp.Verdicts = append(resp.Verdicts, v)
		if v {
			resp.Alarms = append(resp.Alarms, i+1)
		}
	}
	var buf []byte
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendEvalResponse(buf[:0], resp)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var w bytes.Buffer
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := json.NewEncoder(&w).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
