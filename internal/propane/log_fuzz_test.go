package propane

import (
	"bytes"
	"testing"
)

// FuzzReadLog checks write stability of the PROPANE log codec: any
// input readLog accepts must serialise to a form readLog accepts again,
// and the write→read→write cycle must reach a fixed point after the
// first write (which may normalise exotic-but-valid inputs, e.g. a
// state vector on an unsampled run is dropped).
func FuzzReadLog(f *testing.F) {
	f.Add([]byte(`#PROPANE v1
#target 7-Zip
#dataset 7Z-A2
#module FHandle
#inject Entry
#sample Exit
#vars bytesIn bytesOut crc
RUN tc=3 var=crc bit=17 t=2 inj=1 smp=1 fail=0 crash=0 state=1024,2048,3.5
RUN tc=4 var=bytesIn bit=0 t=5 inj=1 smp=0 fail=1 crash=1
`))
	f.Add([]byte("#PROPANE v1\nRUN tc=0 var= bit=-1 t=0 inj=0 smp=0 fail=0 crash=0\n"))
	f.Add([]byte("#PROPANE v1\n#vars a\nRUN tc=1 var=a bit=2 t=1 inj=1 smp=1 fail=1 crash=0 state=NaN\n"))
	f.Add([]byte("#target\n#module m\n#sample Entry\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c1, err := readLog(bytes.NewReader(data))
		if err != nil {
			return // invalid input: nothing to round-trip
		}
		var b1 bytes.Buffer
		if err := WriteLog(&b1, c1); err != nil {
			t.Fatalf("write of parsed campaign failed: %v", err)
		}
		c2, err := readLog(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written log failed: %v\nwritten:\n%s", err, b1.Bytes())
		}
		var b2 bytes.Buffer
		if err := WriteLog(&b2, c2); err != nil {
			t.Fatalf("second write failed: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("write cycle not stable:\nfirst:\n%s\nsecond:\n%s", b1.Bytes(), b2.Bytes())
		}
	})
}
