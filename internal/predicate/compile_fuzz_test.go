package predicate

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// FuzzCompiledEval is the adversarial arm of the differential suite:
// the fuzzer invents predicates (as predicate JSON text) and
// state vectors (as raw IEEE-754 bit patterns, so NaN payloads, ±Inf
// and subnormals all occur), and the compiled program must agree with
// the interpreter on every one — including vectors shorter and longer
// than the predicate's arity.
func FuzzCompiledEval(f *testing.F) {
	f.Add(`{"name":"p","vars":["a","b"],"clauses":[[{"var":"a","index":0,"op":"<=","threshold":3.5}],[{"var":"b","index":1,"op":">","threshold":-1}]]}`,
		[]byte{0, 0, 0, 0, 0, 0, 12, 64, 0, 0, 0, 0, 0, 0, 240, 127})
	f.Add(`{"name":"q","vars":["x"],"clauses":[[{"var":"x","index":0,"op":"=","threshold":0}]]}`,
		[]byte{0, 0, 0, 0, 0, 0, 0, 128})
	f.Add(`{"name":"r","vars":["x","y"],"clauses":[[{"var":"x","index":5,"op":"!=","threshold":1},{"var":"y","index":-1,"op":">","threshold":0}]]}`,
		[]byte{1, 0, 0, 0, 0, 0, 248, 127})
	f.Add(`{"name":"v","vars":["x"],"clauses":[[]]}`, []byte{})
	// Shared prefixes: a clause extending another, duplicates, a fork
	// after a common atom, -0 beside +0 and an empty clause among atoms.
	f.Add(`{"name":"s","vars":["x","y"],"clauses":[[{"var":"x","index":0,"op":">","threshold":1},{"var":"y","index":1,"op":"<=","threshold":2}],[{"var":"x","index":0,"op":">","threshold":1},{"var":"y","index":1,"op":">","threshold":5}],[{"var":"x","index":0,"op":">","threshold":1}]]}`,
		[]byte{0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 24, 64})
	f.Add(`{"name":"d","vars":["x","y"],"clauses":[[{"var":"y","index":1,"op":"!=","threshold":0},{"var":"x","index":0,"op":"<=","threshold":-0}],[{"var":"y","index":1,"op":"!=","threshold":0},{"var":"x","index":0,"op":"<=","threshold":0}],[{"var":"y","index":1,"op":"!=","threshold":0},{"var":"x","index":0,"op":"<=","threshold":-0}]]}`,
		[]byte{0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 248, 127})
	f.Add(`{"name":"e","vars":["x"],"clauses":[[{"var":"x","index":0,"op":"=","threshold":3},{"var":"x","index":0,"op":"=","threshold":3}],[],[{"var":"x","index":0,"op":"=","threshold":3}]]}`,
		[]byte{0, 0, 0, 0, 0, 0, 8, 64})
	f.Fuzz(func(t *testing.T, predText string, raw []byte) {
		// Decoded without Parse's CheckVars, so atoms whose index lies
		// outside vars still reach Compile and the interpreter.
		var plain plainPredicate
		if err := json.Unmarshal([]byte(predText), &plain); err != nil {
			t.Skip() // not a predicate: nothing to compare
		}
		pred := (*Predicate)(&plain)
		prog, err := Compile(pred)
		if err != nil {
			t.Skip() // refused at compile time: no runtime evaluates it
		}
		values := make([]float64, len(raw)/8)
		for i := range values {
			values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		// Compare on the fuzzed vector and on every truncation of it, so
		// out-of-range index handling is probed at each length.
		for n := len(values); n >= 0; n-- {
			vs := values[:n]
			if got, want := prog.Eval(vs), pred.Eval(vs); got != want {
				t.Fatalf("compiled=%v interpreted=%v on %v for %s", got, want, vs, predText)
			}
		}
	})
}
