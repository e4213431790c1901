package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"edem/bench/internal/report"
	"edem/internal/predicate"
	"edem/internal/serve"
)

// codecTime is how long each timing pass over the bodies runs at least.
const codecTime = 300 * time.Millisecond

func cmdCodec(args []string) error {
	fs := flag.NewFlagSet("codec", flag.ContinueOnError)
	bundlePath := fs.String("bundle", "", "detector bundle")
	detector := fs.String("detector", "", "detector the bodies address")
	codec := fs.String("codec", "binary", "binary or json")
	bodiesPath := fs.String("bodies", "", "request bodies with their expected verdicts")
	outPath := fs.String("out", "", "report file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := serve.LoadBundle(*bundlePath)
	if err != nil {
		return err
	}
	var pred *predicate.Predicate
	for _, e := range b.Detectors {
		if e.ID == *detector {
			pred = e.Predicate
		}
	}
	if pred == nil {
		return fmt.Errorf("detector %s not in %s", *detector, *bundlePath)
	}
	bodies, wants, err := readBodies(*bodiesPath)
	if err != nil {
		return err
	}
	out := newOutput()
	m := out.Metrics
	m["predicate.atoms"] = float64(pred.Complexity())

	var compile []float64
	var prog *predicate.Program
	for start := time.Now(); time.Since(start) < codecTime; {
		t := time.Now()
		if prog, err = predicate.Compile(pred); err != nil {
			return err
		}
		compile = append(compile, time.Since(t).Seconds()*1e6)
	}
	m["predicate.compile_us"] = report.Median(compile)

	k := &kernels{binary: *codec == "binary", prog: prog}
	// One checking pass: every sample the runner sends gets the same
	// verdict from the compiled program, from the AST evaluator (the
	// reference semantics) and from the runner's own evaluator.
	for i, body := range bodies {
		samples, release, err := k.decode(body)
		if err != nil {
			return err
		}
		if len(samples) != len(wants[i]) {
			out.errorf("body %d: decoded %d samples, want %d", i, len(samples), len(wants[i]))
		}
		for j, s := range samples {
			if c, a := prog.Eval(s), pred.Eval(s); c != a || j >= len(wants[i]) || a != wants[i][j] {
				out.errorf("body %d sample %d: compiled %v, AST %v, runner %v", i, j, c, a, j < len(wants[i]) && wants[i][j])
				break
			}
		}
		release()
	}

	var decode, eval, encode []float64
	var evalNS, samples float64
	for start := time.Now(); time.Since(start) < codecTime; {
		for _, body := range bodies {
			t0 := time.Now()
			s, release, err := k.decode(body)
			if err != nil {
				return err
			}
			t1 := time.Now()
			resp := k.eval(*detector, s)
			t2 := time.Now()
			if err := k.encode(resp); err != nil {
				return err
			}
			t3 := time.Now()
			release()
			decode = append(decode, t1.Sub(t0).Seconds()*1e6)
			eval = append(eval, t2.Sub(t1).Seconds()*1e6)
			encode = append(encode, t3.Sub(t2).Seconds()*1e6)
			evalNS += float64(t2.Sub(t1).Nanoseconds())
			samples += float64(len(s))
		}
	}
	m["serve.decode_us"] = report.Median(decode)
	m["serve.eval_us"] = report.Median(eval)
	m["serve.encode_us"] = report.Median(encode)
	m["predicate.eval_ns_per_sample"] = evalNS / samples
	return out.write(*outPath)
}

// kernels are the three steps of serving one request, called the way
// the server calls them, single-threaded.
type kernels struct {
	binary bool
	prog   *predicate.Program
	buf    []byte
}

func (k *kernels) decode(body []byte) ([]serve.Sample, func(), error) {
	if k.binary {
		br, err := serve.DecodeBinaryRequest(body)
		if err != nil {
			return nil, nil, err
		}
		return br.Samples, br.Release, nil
	}
	var req serve.EvalRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	return req.Samples, func() {}, nil
}

func (k *kernels) eval(detector string, samples []serve.Sample) *serve.EvalResponse {
	verdicts := make([]bool, len(samples))
	var alarms []int
	for i, s := range samples {
		if verdicts[i] = k.prog.Eval(s); verdicts[i] {
			alarms = append(alarms, i+1)
		}
	}
	return &serve.EvalResponse{Detector: detector, Verdicts: verdicts, Alarms: alarms,
		Evaluated: len(samples), BundleGeneration: 1}
}

func (k *kernels) encode(resp *serve.EvalResponse) error {
	var err error
	if k.binary {
		k.buf, err = serve.EncodeBinaryResponse(k.buf[:0], resp, resp.BundleGeneration)
		return err
	}
	k.buf, err = json.Marshal(resp)
	return err
}

// readBodies reads the runner's bodies file: per body a u32 length and
// the body, then a u32 count and one byte (0 or 1) per expected verdict.
func readBodies(path string) ([][]byte, [][]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var bodies [][]byte
	var wants [][]bool
	for len(data) > 0 {
		field := func() []byte {
			if len(data) < 4 {
				return nil
			}
			n := int(binary.LittleEndian.Uint32(data))
			if len(data) < 4+n {
				return nil
			}
			f := data[4 : 4+n]
			data = data[4+n:]
			return f
		}
		body, verdicts := field(), field()
		if body == nil || verdicts == nil {
			return nil, nil, fmt.Errorf("%s: truncated", path)
		}
		want := make([]bool, len(verdicts))
		for i, v := range verdicts {
			want[i] = v == 1
		}
		bodies = append(bodies, body)
		wants = append(wants, want)
	}
	return bodies, wants, nil
}
