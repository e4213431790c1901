package serve

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzDecodeJSONRequest holds the one-pass evaluate decoder to
// encoding/json: on every input DecodeJSONRequest returns the error
// text today's decoder returns, or the same request bit for bit, and a
// body the fast path accepts is one encoding/json accepts too.
func FuzzDecodeJSONRequest(f *testing.F) {
	specials := []Sample{
		{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)},
		{1e-7, 1e21, 5e-324, math.MaxFloat64, -1e308},
	}
	f.Add(appendJSONRequest(nil, "MG-A1", specials))
	f.Add(benchShapedBody("7Z-B2", specials))
	rng := rand.New(rand.NewSource(4))
	f.Add(appendJSONRequest(nil, "FG-A2", randomSamples(rng, 8, 5)))
	f.Add(benchShapedBody("KV-A2", randomSamples(rng, 8, 5)))
	for _, tc := range jsonDecodeCases {
		f.Add([]byte(tc.body))
	}
	for _, tok := range exactPathTokens {
		f.Add([]byte(`{"detector":"D","samples":[[` + tok + `]]}`))
	}
	for _, body := range []string{
		`{"detector":"D","samples":[[1e400,-1e400,1e-400]]}`,
		`{"detector":"D\"q","samples":[[1]]}`,
		`{"detector":"D","samples":[["7ff8000000000000"]]}`,
		`{"detector":null,"samples":null,"deadline_ms":null,"delay_ms":null}`,
		`{"detector":"D","samples":[[1]],"deadline_ms":250,"delay_ms":7} {"x":1}`,
		`{"detector":"D","samples":[[1]]}]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
	})
}
