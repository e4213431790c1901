package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edem/internal/predicate"
	"edem/internal/propane"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// thresholdBundle builds a two-detector bundle: HOT flags v > thr (the
// hammered detector — the threshold identifies the bundle variant) and
// TRIP is the breaker-trip target.
func thresholdBundle(thr float64) *Bundle {
	pred := func(name string, t float64) *predicate.Predicate {
		return &predicate.Predicate{
			Name: name,
			Vars: []string{"v"},
			Clauses: []predicate.Clause{
				{{Var: "v", Index: 0, Op: predicate.GT, Threshold: t}},
			},
		}
	}
	return &Bundle{Version: BundleVersion, Detectors: []BundleEntry{
		{ID: "HOT", Module: "M", Location: "Exit", Predicate: pred("HOT", thr)},
		{ID: "TRIP", Module: "M", Location: "Exit", Predicate: pred("TRIP", 0)},
	}}
}

// TestServeReloadHammerRace is the hot-reload torture drill, meant for
// -race: four hammer goroutines (two per codec) stream evaluations at
// the HOT detector while bundle variants A (threshold 100) and B
// (threshold 200) are swapped in through alternating admin-endpoint and
// SIGHUP-style reloads, and a fifth goroutine keeps tripping and
// re-closing the TRIP breaker. Every response must be internally
// consistent with the generation it reports — variant A is installed at
// odd generations, so the verdict on sample 150 must equal the parity
// of BundleGeneration (no torn table reads) — and every goroutine must
// observe a non-decreasing generation sequence.
func TestServeReloadHammerRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.json")
	variant := func(gen uint64) float64 { // gen odd -> A(100), even -> B(200)
		if gen%2 == 1 {
			return 100
		}
		return 200
	}
	if err := thresholdBundle(variant(1)).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(b, path, Config{
		Registry: telemetry.New(),
		Breaker:  BreakerConfig{Threshold: 1, Cooldown: 5 * time.Millisecond},
		// The TRIP detector faults on the sentinel value; everything else
		// evaluates normally. Wrapping at build time keeps the injection
		// race-free across reloads.
		WrapEval: func(id string, eval func([]float64) bool) func([]float64) bool {
			if id != "TRIP" {
				return eval
			}
			return func(vs []float64) bool {
				if len(vs) > 0 && vs[0] == -777 {
					panic("synthetic TRIP fault")
				}
				return eval(vs)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	ctx := context.Background()
	var stopHammer atomic.Bool
	var wg sync.WaitGroup

	// Hammers: both codecs, two goroutines each.
	for _, codec := range []wireCodec{codecJSON, codecBinary, codecJSON, codecBinary} {
		wg.Add(1)
		go func(codec wireCodec) {
			defer wg.Done()
			cl := &testClient{base: hs.URL, codec: codec}
			var lastGen uint64
			for !stopHammer.Load() {
				resp, err := cl.evaluate(ctx, "HOT", []Sample{{150}, {250}})
				if err != nil {
					t.Errorf("%v hammer: %v", codec, err)
					return
				}
				gen := resp.BundleGeneration
				if gen < lastGen {
					t.Errorf("%v hammer: generation went backwards: %d after %d", codec, gen, lastGen)
					return
				}
				lastGen = gen
				if len(resp.Verdicts) != 2 || !resp.Verdicts[1] {
					t.Errorf("%v hammer: verdicts = %v (sample 250 must always alarm)", codec, resp.Verdicts)
					return
				}
				if want := variant(gen) == 100; resp.Verdicts[0] != want {
					t.Errorf("%v hammer: gen %d (threshold %v) but verdict on 150 = %v — torn bundle read",
						codec, gen, variant(gen), resp.Verdicts[0])
					return
				}
			}
		}(codec)
	}

	// Breaker agitator: trips TRIP with the fault sentinel, then pokes it
	// until the half-open probe closes the circuit again. 500 (fault) and
	// 503 (open circuit) are the expected rejections; anything else is a
	// bug.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := &testClient{base: hs.URL}
		for !stopHammer.Load() {
			for _, v := range []float64{-777, 50, 50} {
				_, err := cl.evaluate(ctx, "TRIP", []Sample{{v}})
				if err == nil {
					continue
				}
				var se *StatusError
				if errors.As(err, &se) &&
					(se.Code == http.StatusInternalServerError ||
						se.Code == http.StatusServiceUnavailable ||
						se.Code == http.StatusTooManyRequests) {
					continue
				}
				t.Errorf("trip agitator: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Reloader: alternate the bundle variant on disk, reloading through
	// the admin endpoint and the SIGHUP path (Reload("")) in turn. The
	// installed generation must advance by exactly one per reload.
	const reloads = 30
	for k := 1; k <= reloads; k++ {
		gen := uint64(k + 1)
		if err := thresholdBundle(variant(gen)).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if k%2 == 0 {
			res, err := http.Post(hs.URL+"/admin/reload", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			var rr ReloadResponse
			if err := json.NewDecoder(res.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
			res.Body.Close()
			if res.StatusCode != http.StatusOK || rr.Generation != gen {
				t.Fatalf("admin reload %d: code %d generation %d, want %d", k, res.StatusCode, rr.Generation, gen)
			}
		} else {
			if _, err := s.Reload(""); err != nil { // the SIGHUP behaviour
				t.Fatalf("SIGHUP reload %d: %v", k, err)
			}
			if got := generation(s); got != gen {
				t.Fatalf("SIGHUP reload %d: generation %d, want %d", k, got, gen)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	stopHammer.Store(true)
	wg.Wait()
}

// TestServeChunkedAgreesWithDetectorVisit pins the end-to-end
// agreement the deployment story depends on: the in-process Detector
// (paper §VII-D's runtime assertion) and the serving path, under both
// codecs, must each report exactly the alarms the interpreted oracle
// Predicate.Eval raises — even when the client chops the batch into
// chunks and re-indexes alarms.
func TestServeChunkedAgreesWithDetectorVisit(t *testing.T) {
	pred := &predicate.Predicate{
		Name: "agree",
		Vars: []string{"a", "b", "c"},
		Clauses: []predicate.Clause{
			{{Var: "a", Index: 0, Op: predicate.GT, Threshold: 2},
				{Var: "b", Index: 1, Op: predicate.LE, Threshold: 0.5}},
			{{Var: "c", Index: 2, Op: predicate.EQ, Threshold: 7}},
			{{Var: "a", Index: 0, Op: predicate.NE, Threshold: 0},
				{Var: "c", Index: 2, Op: predicate.LE, Threshold: -3}},
		},
	}

	// Seeded sample stream with NaN (missing) contamination.
	rng := stats.NewRNG(42)
	samples := make([]Sample, 500)
	for i := range samples {
		s := Sample{rng.Float64()*8 - 4, rng.Float64()*2 - 1, rng.Float64() * 10}
		if i%17 == 0 {
			s[rng.Intn(3)] = math.NaN()
		}
		if i%23 == 0 {
			s[2] = 7 // force clause-2 hits
		}
		samples[i] = s
	}

	// The oracle: 1-based indices of the samples the interpreter flags.
	var want []int
	for i, s := range samples {
		if pred.Eval(s) {
			want = append(want, i+1)
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate stream: the oracle raises no alarms")
	}
	sameAlarms := func(who string, got []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d alarms, oracle raised %d", who, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: alarm %d at sample %d, oracle at %d", who, i, got[i], want[i])
			}
		}
	}

	// In-process Detector driven through the Probe interface, one Visit
	// per sample.
	det, err := predicate.NewDetector("M", propane.Exit, pred)
	if err != nil {
		t.Fatal(err)
	}
	var a, b, c float64
	refs := []propane.VarRef{
		propane.Float64Ref("a", &a),
		propane.Float64Ref("b", &b),
		propane.Float64Ref("c", &c),
	}
	for _, s := range samples {
		a, b, c = s[0], s[1], s[2]
		det.Visit("M", propane.Exit, refs)
	}
	if det.VisitCount() != len(samples) {
		t.Fatalf("detector visited %d of %d samples", det.VisitCount(), len(samples))
	}
	sameAlarms("Detector.Visit", det.AlarmIndices())

	// Compiled serving path: the same samples through the server, chunked
	// small enough that alarm re-indexing has to do real work.
	bundle := &Bundle{Version: BundleVersion, Detectors: []BundleEntry{
		{ID: "A1", Module: "M", Location: "Exit", Predicate: pred},
	}}
	reg := telemetry.New()
	s, err := NewServer(bundle, "", Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	if reg.Counter("predicate.compile_programs").Value() != 1 {
		t.Fatal("serving path did not compile the predicate")
	}

	for _, codec := range []wireCodec{codecJSON, codecBinary} {
		cl := &testClient{base: hs.URL, codec: codec}
		resp, err := evaluateChunks(context.Background(), cl, "A1", samples, 7)
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		if resp.Evaluated != len(samples) {
			t.Fatalf("%v: served %d evaluations of %d", codec, resp.Evaluated, len(samples))
		}
		sameAlarms(codec.String(), resp.Alarms)
	}
}

// TestServeCodecCountersWorkerInvariant extends the scheduling
// invariance of the serve counters to the codec and compilation
// metrics: the same request stream yields identical
// serve.json_requests / serve.binary_requests /
// predicate.compile_programs / predicate.compile_atoms for any worker
// count.
func TestServeCodecCountersWorkerInvariant(t *testing.T) {
	counts := func(workers int) [4]int64 {
		reg := telemetry.New()
		_, hs := newTestServer(t, Config{Workers: workers, Registry: reg}, "D1")
		ctx := context.Background()
		for _, codec := range []wireCodec{codecJSON, codecJSON, codecJSON, codecBinary, codecBinary} {
			cl := &testClient{base: hs.URL, codec: codec}
			if _, err := cl.evaluate(ctx, "D1", []Sample{{5}, {500}}); err != nil {
				t.Fatalf("workers=%d %v: %v", workers, codec, err)
			}
		}
		return [4]int64{
			reg.Counter("serve.json_requests").Value(),
			reg.Counter("serve.binary_requests").Value(),
			reg.Counter("predicate.compile_programs").Value(),
			reg.Counter("predicate.compile_atoms").Value(),
		}
	}
	want := counts(1)
	if want != [4]int64{3, 2, 1, 1} {
		t.Fatalf("baseline counters = %v, want [3 2 1 1]", want)
	}
	for _, w := range []int{2, 8} {
		if got := counts(w); got != want {
			t.Fatalf("workers=%d: counters = %v, want %v", w, got, want)
		}
	}
}

// TestServeRefusesUncompilableBundle pins the single evaluation path
// at the server's two bundle entry points: NewServer refuses a bundle
// with an uncompilable predicate outright, and a reload to one fails
// with 500 while the current generation keeps serving.
func TestServeRefusesUncompilableBundle(t *testing.T) {
	for name, atom := range uncompilableAtoms {
		var bad Bundle
		if err := json.Unmarshal([]byte(uncompilableBundleJSON(atom)), &bad); err != nil {
			t.Fatal(err)
		}
		if _, err := NewServer(&bad, "", Config{Registry: telemetry.New()}); err == nil {
			t.Fatalf("%s: NewServer accepted an uncompilable bundle", name)
		}

		path := filepath.Join(t.TempDir(), "bundle.json")
		if err := testBundle("D1").WriteFile(path); err != nil {
			t.Fatal(err)
		}
		b, err := LoadBundle(path)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		s, err := NewServer(b, path, Config{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		if err := os.WriteFile(path, []byte(uncompilableBundleJSON(atom)), 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := http.Post(hs.URL+"/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: reload to an uncompilable bundle: code %d, want 500", name, res.StatusCode)
		}
		if generation(s) != 1 || reg.Counter("serve.reloads").Value() != 0 {
			t.Fatalf("%s: failed reload moved the server to generation %d", name, generation(s))
		}
		code, ok, _ := postEval(t, hs.URL, EvalRequest{Detector: "D1", Samples: []Sample{{500}}})
		if code != http.StatusOK || len(ok.Alarms) != 1 || ok.BundleGeneration != 1 {
			t.Fatalf("%s: generation 1 after failed reload: code %d %+v", name, code, ok)
		}
		hs.Close()
	}
}
