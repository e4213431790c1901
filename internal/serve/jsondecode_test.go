package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// oracleDecode is the evaluate decoder DecodeJSONRequest must
// reproduce: encoding/json streaming one value into an EvalRequest.
func oracleDecode(r io.Reader) (EvalRequest, error) {
	var req EvalRequest
	err := json.NewDecoder(r).Decode(&req)
	return req, err
}

// requestDiff describes how got differs from want, or returns "".
// Values compare by bit pattern, so NaN payloads and -0 count.
func requestDiff(want EvalRequest, got *BinaryRequest) string {
	switch {
	case got.Detector != want.Detector:
		return fmt.Sprintf("detector %q, want %q", got.Detector, want.Detector)
	case got.DeadlineMS != want.DeadlineMS || got.DelayMS != want.DelayMS:
		return fmt.Sprintf("deadline/delay %d/%d, want %d/%d", got.DeadlineMS, got.DelayMS, want.DeadlineMS, want.DelayMS)
	case len(got.Samples) != len(want.Samples):
		return fmt.Sprintf("%d samples, want %d", len(got.Samples), len(want.Samples))
	}
	for i, s := range want.Samples {
		if len(got.Samples[i]) != len(s) {
			return fmt.Sprintf("sample %d has %d values, want %d", i, len(got.Samples[i]), len(s))
		}
		for j, v := range s {
			if g := got.Samples[i][j]; math.Float64bits(g) != math.Float64bits(v) {
				return fmt.Sprintf("sample %d value %d = %x, want %x", i, j, math.Float64bits(g), math.Float64bits(v))
			}
		}
	}
	return ""
}

// checkAgainstOracle decodes data both ways and fails on any
// difference: error text, or the decoded request. It returns whether
// the fast path accepted the body.
func checkAgainstOracle(t *testing.T, data []byte) (fast bool) {
	t.Helper()
	want, werr := oracleDecode(bytes.NewReader(data))
	if fast = new(BinaryRequest).parseCanonicalJSON(data); fast {
		if werr != nil {
			t.Fatalf("fast path accepted %q, encoding/json fails: %v", data, werr)
		}
	}
	got, err := DecodeJSONRequest(data)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("decode %q: error %v, want %v", data, err, werr)
	}
	if err != nil {
		return fast
	}
	defer got.Release()
	if d := requestDiff(want, got); d != "" {
		t.Fatalf("decode %q (fast %v): %s", data, fast, d)
	}
	return fast
}

// benchShapedBody encodes a body the way bench/'s load generator does:
// strconv.AppendQuote for the detector, 'g' shortest floats and hex
// strings for NaN and ±Inf.
func benchShapedBody(detector string, samples []Sample) []byte {
	b := []byte(`{"detector":`)
	b = strconv.AppendQuote(b, detector)
	b = append(b, `,"samples":[`...)
	for i, s := range samples {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range s {
			if j > 0 {
				b = append(b, ',')
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				b = append(b, '"')
				b = strconv.AppendUint(b, math.Float64bits(v), 16)
				b = append(b, '"')
				continue
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// edgeFloats are values whose encodings take every branch of both
// float formats, and the non-finite hex transport.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 100, 1e-6, 9.99999e-7, 1e-7, 1e-9, 1e-10,
	1e20, 1e21, 1e22, -1e21, 123456789012345678, 1e308, -1e308, math.MaxFloat64,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, -5e-324,
	math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0xfff0000000000001),
}

// randomSamples draws n samples of the given arity mixing edge values,
// ordinary floats across magnitudes and raw bit patterns.
func randomSamples(rng *rand.Rand, n, arity int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		s := make(Sample, arity)
		for j := range s {
			switch rng.Intn(4) {
			case 0:
				s[j] = edgeFloats[rng.Intn(len(edgeFloats))]
			case 1:
				s[j] = math.Float64frombits(rng.Uint64())
			default:
				s[j] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
		out[i] = s
	}
	return out
}

// marshalReference encodes an evaluate body with encoding/json's own
// float64 encoder for every finite value (Sample.MarshalJSON now
// shares appendValue, so it cannot serve as the reference).
func marshalReference(t *testing.T, detector string, samples []Sample) []byte {
	t.Helper()
	ref := struct {
		Detector string  `json:"detector"`
		Samples  [][]any `json:"samples"`
	}{Detector: detector}
	if samples != nil {
		ref.Samples = make([][]any, len(samples))
	}
	for i, s := range samples {
		ref.Samples[i] = make([]any, len(s))
		for j, v := range s {
			ref.Samples[i][j] = v
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ref.Samples[i][j] = strconv.FormatUint(math.Float64bits(v), 16)
			}
		}
	}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestAppendJSONRequestMatchesMarshal(t *testing.T) {
	ids := []string{"MG-A1", "", `quo"te\back`, "<a&b>", "tab\tnl\n\x00", "\xff\xfe", "  ", "é", "\u2028"}
	batches := [][]Sample{
		nil, {}, {nil}, {{}},
		{edgeFloats},
		randomSamples(rand.New(rand.NewSource(1)), 64, 7),
	}
	for _, id := range ids {
		for _, samples := range batches {
			want, err := json.Marshal(EvalRequest{Detector: id, Samples: samples})
			if err != nil {
				t.Fatal(err)
			}
			if ref := marshalReference(t, id, samples); !bytes.Equal(want, ref) {
				t.Fatalf("detector %q: json.Marshal(EvalRequest)\n%s\nwant encoding/json floats\n%s", id, want, ref)
			}
			if got := appendJSONRequest(nil, id, samples); !bytes.Equal(got, want) {
				t.Fatalf("detector %q: appendJSONRequest\n%s\nwant json.Marshal\n%s", id, got, want)
			}
		}
	}
}

// TestCanonicalBodiesTakeFastPath pins the claim that matters on the
// wire: bodies from the test client and from the benchmark's generator never
// reach the fallback, and decode to the values that were sent, through
// pooled state that earlier, larger or smaller, requests reused.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		samples := randomSamples(rng, 1+rng.Intn(40), rng.Intn(9))
		id := fmt.Sprintf("D-%d", trial)
		for _, body := range [][]byte{
			appendJSONRequest(nil, id, samples),
			benchShapedBody(id, samples),
		} {
			checkAgainstOracle(t, body)
			br, fellBack, err := readJSONRequest(bytes.NewReader(body))
			if err != nil || fellBack {
				t.Fatalf("canonical body: fellBack %v, err %v: %.200s", fellBack, err, body)
			}
			if br.Detector != id || br.DeadlineMS != 0 || br.DelayMS != 0 {
				t.Fatalf("header %q %d %d, want %q 0 0", br.Detector, br.DeadlineMS, br.DelayMS, id)
			}
			bitIdentical(t, samples, br.Samples)
			br.Release()
		}
	}
}

// jsonDecodeCases are bodies at the edges of the canonical grammar,
// each with whether the fast path takes it. They also seed
// FuzzDecodeJSONRequest.
var jsonDecodeCases = []struct {
	body string
	fast bool
}{
	{`{"detector":"D","samples":[[1,2],[3,4]]}`, true},
	{" \t\n{ \"detector\" : \"D\" , \"samples\" : [ [ 1 , \"7ff8000000000000\" ] ] } \r\n", true},
	{`{"samples":[[-0,0.5e-3,1E+2,-1.25e-400]],"detector":"D","deadline_ms":-0,"delay_ms":15}`, true},
	{`{"detector":"D","samples":[[1],[2,3],[]]}`, true},
	{`{"detector":"D","samples":[]}`, true},
	{`{}`, true},
	{`{"detector":"D","samples":[["FFF0000000000000","0"]]}`, true},
	{`{"detector":"D","samples":[[1e400]]}`, false},
	{`{"detector":"D","samples":[[01]]}`, false},
	{`{"detector":"D","samples":[[+1]]}`, false},
	{`{"detector":"D","samples":[[.5]]}`, false},
	{`{"detector":"D","samples":[[1.]]}`, false},
	{`{"detector":"D","samples":[[1e]]}`, false},
	{`{"detector":"D","samples":[[-]]}`, false},
	{`{"detector":"D","samples":[[1,]]}`, false},
	{`{"detector":"D","samples":[[1] [2]]}`, false},
	{`{"detector":"D","samples":[[true]]}`, false},
	{`{"detector":"D","samples":[[null]]}`, false},
	{`{"detector":"D","samples":[null]}`, false},
	{`{"detector":"D","samples":null}`, false},
	{`{"detector":null,"samples":[[1]]}`, false},
	{`null`, false},
	{`{"detector":"D","samples":[["7ff000000000000\u0030"]]}`, false},
	{`{"detector":"D","samples":[["xyz"]]}`, false},
	{`{"detector":"D","samples":[[""]]}`, false},
	{`{"detector":"D","samples":[["1ffffffffffffffff"]]}`, false},
	{`{"detecto\u0072":"D","samples":[[1]]}`, false},
	{`{"detector":"D\u0031","samples":[[1]]}`, false},
	{`{"Detector":"D","samples":[[1]]}`, false},
	{`{"DETECTOR":"D","SAMPLES":[[1]],"Deadline_MS":5}`, false},
	{`{"detector":"D","detector":"E","samples":[[1]]}`, false},
	{`{"detector":"D","samples":[[1]],"samples":[[2,3]]}`, false},
	{`{"detector":"D","samples":[[1]],"extra":1}`, false},
	{`{"detector":"D","samples":[[1]],"deadline_ms":1.5}`, false},
	{`{"detector":"D","samples":[[1]],"deadline_ms":1e3}`, false},
	{`{"detector":"D","samples":[[1]],"delay_ms":9223372036854775808}`, false},
	{`{"detector":"D","samples":[[1]],"delay_ms":"5"}`, false},
	{`{"detector":"D","samples":[[1]]} trailing`, false},
	{`{"detector":"D","samples":[[1]]}{}`, false},
	{`{"detector":"é","samples":[[1]]}`, false},
	{`{"detector":"D","samples":[[1]]`, false},
	{`{"detector":"D",}`, false},
	{``, false},
	{`   `, false},
	{`[]`, false},
}

// exactPathTokens sit at each boundary of the one-pass decoder's exact
// number path (mantissa below 2^52 of at most 19 digits, exponent in
// [-22, 37] with the 1e15 check) and just past it. They also seed
// FuzzDecodeJSONRequest.
var exactPathTokens = []string{
	"4503599627370495", "-4503599627370495", "4503599627370496", "9007199254740993",
	"1e22", "1e23", "123e-22", "1e-22", "1e-23", "4503599627370495e-22",
	"-0", "-0.0e5", "0e400", "0.000001", "0.0000001", "100e-2", "1.50", "1E+2",
	"1e37", "9e37", "1e38", "1000000000000000e22", "1000000000000001e22", "4503599627370495e22",
	"1234567890123456789", "1234567890123456789e-3", "12345678901234567890", "0.12345678901234567890",
	"10000000000000000000", "1e400", "-1e400", "1e-400",
}

// TestFloatMatchesParseFloat holds jsonScanner.float to
// strconv.ParseFloat bit for bit at the exact path's boundaries, both
// on the bare token and inside an evaluate body checked against
// encoding/json.
func TestFloatMatchesParseFloat(t *testing.T) {
	for _, tok := range exactPathTokens {
		want, werr := strconv.ParseFloat(tok, 64)
		p := jsonScanner{data: []byte(tok)}
		got, ok := p.float()
		if ok != (werr == nil) {
			t.Errorf("%s: accepted %v, strconv.ParseFloat error %v", tok, ok, werr)
			continue
		}
		if p.off != len(tok) {
			t.Errorf("%s: consumed %d of %d bytes", tok, p.off, len(tok))
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %x, strconv.ParseFloat %x", tok, math.Float64bits(got), math.Float64bits(want))
		}
		body := `{"detector":"D","samples":[[` + tok + `]]}`
		if fast := checkAgainstOracle(t, []byte(body)); fast != (werr == nil) {
			t.Errorf("%s: fast path %v, want %v", body, fast, werr == nil)
		}
	}
	// A seeded sweep of short decimals around the exact range, written
	// as integers, fractions and exponent forms.
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 20000; n++ {
		digits := strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10)
		var tok string
		switch n % 3 {
		case 0:
			tok = digits + "e" + strconv.Itoa(rng.Intn(70)-30)
		case 1:
			k := rng.Intn(len(digits) + 1)
			tok = digits[:k] + "." + digits[k:] + "0"
			if k == 0 {
				tok = "0" + tok
			}
		default:
			tok = "-0.000" + digits
		}
		p := jsonScanner{data: []byte(tok)}
		got, ok := p.float()
		want, werr := strconv.ParseFloat(tok, 64)
		if ok != (werr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %v %x, strconv.ParseFloat %v %x", tok, ok, math.Float64bits(got), werr, math.Float64bits(want))
		}
	}
}

func TestDecodeJSONRequestMatchesEncodingJSON(t *testing.T) {
	for _, tc := range jsonDecodeCases {
		if fast := checkAgainstOracle(t, []byte(tc.body)); fast != tc.fast {
			t.Errorf("%s: fast path %v, want %v", tc.body, fast, tc.fast)
		}
	}
}

// TestReadJSONRequestReplaysReadError covers a body whose read fails
// part-way, as an over-limit body does: the decoder must see the bytes
// read so far and then the error, so a value complete before the limit
// still decodes and one cut by it fails with the read error.
func TestReadJSONRequestReplaysReadError(t *testing.T) {
	errLimit := errors.New("http: request body too large")
	for _, prefix := range []string{
		`{"detector":"D","samples":[[1]]}` + strings.Repeat(" ", 600) + "x",
		`{"detector":"D","samples":[[1],[2`,
		`{"detector":"D","samples":[[1]]} `,
		`not json`,
		``,
	} {
		body := func() io.Reader { return io.MultiReader(strings.NewReader(prefix), errReader{errLimit}) }
		want, werr := oracleDecode(body())
		got, fellBack, err := readJSONRequest(body())
		if !fellBack {
			t.Errorf("%q: a failed read must take the fallback", prefix)
		}
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("%q: error %v, want %v", prefix, err, werr)
		}
		if err == nil {
			if d := requestDiff(want, got); d != "" {
				t.Fatalf("%q: %s", prefix, d)
			}
			got.Release()
		}
	}
}
