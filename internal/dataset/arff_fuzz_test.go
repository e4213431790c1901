package dataset

import (
	"bytes"
	"testing"
)

// FuzzARFFRoundTrip checks write stability: any input readARFF accepts
// must serialise to a form that (a) readARFF accepts again and (b) is a
// fixed point of the write→read→write cycle. Byte-equality of the two
// written forms (rather than deep equality of the datasets) makes the
// property robust to one-time normalisation of exotic inputs — e.g.
// "+Inf" is written back as "+Inf" and "1e0" as "1" — while still
// catching every quoting, escaping and domain-handling asymmetry.
func FuzzARFFRoundTrip(f *testing.F) {
	f.Add([]byte(`@relation demo
@attribute x numeric
@attribute mode integer
@attribute class {pass,fail}
@data
1.5,0,pass
1e308,1,fail
2.25e-3,-1e308,pass
`))
	f.Add([]byte(`@relation 'quoted name'
@attribute 'attr with space' numeric
@attribute class {'a,b','it''s'}
@data
3,'a,b'
`))
	f.Add([]byte(`@relation n
% comment
@attribute a numeric
@attribute class {yes,no}

@data
0,yes
+Inf,no
-Inf,yes
`))
	f.Add([]byte("@relation r\n@attribute \"d'q\" numeric\n@attribute class {\"a',b\",z}\n@data\n1,\"a',b\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d1, err := readARFF(bytes.NewReader(data))
		if err != nil {
			return // invalid input: nothing to round-trip
		}
		var b1 bytes.Buffer
		if err := WriteARFF(&b1, d1); err != nil {
			t.Fatalf("write of parsed dataset failed: %v", err)
		}
		d2, err := readARFF(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written ARFF failed: %v\nwritten:\n%s", err, b1.Bytes())
		}
		var b2 bytes.Buffer
		if err := WriteARFF(&b2, d2); err != nil {
			t.Fatalf("second write failed: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("write cycle not stable:\nfirst:\n%s\nsecond:\n%s", b1.Bytes(), b2.Bytes())
		}
	})
}
