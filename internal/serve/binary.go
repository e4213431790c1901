package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// The columnar binary batch frame: the wire format that lets a serving
// client stream state samples without the JSON costs (float formatting,
// per-token parsing, per-sample allocations). Values travel as raw
// IEEE-754 bit patterns — the same exactness guarantee as the hex
// transport the campaign journal and the JSON Sample codec use, so NaN
// and ±Inf round-trip bit-exactly by construction. The batch is laid
// out column-major (all samples' values for attribute 0, then attribute
// 1, ...), which keeps each attribute's values contiguous for future
// vectorised evaluation and compresses well on the wire.
//
// Frame layout (all integers little-endian):
//
//	u32  length of the remainder (self-delimiting length prefix)
//	u32  magic "EDBF"
//	u8   version (1)
//	u8   kind (1 = request, 2 = response)
//
// Request (kind 1):
//
//	u16  detector ID length, then that many UTF-8 bytes
//	u32  sample count n
//	u32  arity a
//	i64  deadline_ms, i64 delay_ms
//	a×n  u64 IEEE-754 bit patterns, column-major (column j at j*n+i)
//
// Response (kind 2):
//
//	u64  bundle generation
//	u16  degraded reason length, then that many UTF-8 bytes
//	u32  evaluated
//	u32  verdict count n, then ceil(n/8) bitmap bytes (sample i at
//	     byte i/8, bit i%8, LSB-first)
//	u32  alarm count, then that many u32 1-based sample indices
//
// Decoding is strict: trailing bytes, truncated columns or a length
// prefix that disagrees with the body are errors, so the fuzzer can
// demand decode→encode→decode fixed-point stability.

// ContentTypeBinary is the Content-Type under which the binary batch
// frame travels; ContentTypeJSON is the default JSON codec.
const (
	ContentTypeBinary = "application/x-edem-batch"
	ContentTypeJSON   = "application/json"
)

const (
	binMagic           = 0x46424445 // "EDBF"
	binVersion         = 1
	binKindRequest     = 1
	binKindResponse    = 2
	binMaxDetectorID   = 1 << 10
	binMaxDegradedLen  = 1 << 12
	binMaxFrameSamples = maxRequestBody / 8
)

// BinaryRequest is the decoded form of an evaluate request, from either
// codec (DecodeBinaryRequest, DecodeJSONRequest). Decoded samples are
// views into one flat backing array, so a pooled request costs O(1)
// allocations regardless of batch size.
type BinaryRequest struct {
	Detector   string
	Samples    []Sample
	DeadlineMS int64
	DelayMS    int64

	flat    []float64
	sampHdr []Sample
	buf     []byte // scratch the frame was read into (pooled)
}

// binReqPool recycles BinaryRequest parsing state across requests: the
// body buffer, the flat value array and the sample-header slice all
// survive, so steady-state parsing of binary frames and canonical JSON
// bodies allocates nothing per sample.
var binReqPool = sync.Pool{New: func() any { return new(BinaryRequest) }}

// getBinaryRequest fetches a pooled request shell.
func getBinaryRequest() *BinaryRequest { return binReqPool.Get().(*BinaryRequest) }

// Release returns the request's buffers to the pool. Callers must not
// touch the request or its samples afterwards — and must NOT call it
// while an evaluation that references Samples may still be running
// (the deadline-abandonment path leaks the request to the GC instead).
func (br *BinaryRequest) Release() {
	br.Detector = ""
	br.Samples = nil
	br.DeadlineMS, br.DelayMS = 0, 0
	binReqPool.Put(br)
}

// appendUint16/32/64 are the little-endian append helpers shared by
// both frame encoders.
func appendUint16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendUint32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// binReader is a bounds-checked little-endian cursor over one frame.
type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("serve: binary frame: "+format, args...)
	}
}

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail("truncated at offset %d (want %d more bytes of %d)", r.off, n, len(r.data))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *binReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *binReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *binReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// frameHeader validates the shared prefix and returns the kind.
func (r *binReader) frameHeader() uint8 {
	if m := r.u32(); r.err == nil && m != binMagic {
		r.fail("bad magic %#x", m)
	}
	if v := r.u8(); r.err == nil && v != binVersion {
		r.fail("unsupported version %d", v)
	}
	return r.u8()
}

// decodeInto parses one request frame into the (pooled) receiver,
// reusing its flat array and sample headers.
func (br *BinaryRequest) decodeInto(data []byte) error {
	r := &binReader{data: data}
	if n := r.u32(); r.err == nil && int(n) != len(data)-4 {
		r.fail("length prefix %d disagrees with body length %d", n, len(data)-4)
	}
	if k := r.frameHeader(); r.err == nil && k != binKindRequest {
		r.fail("kind %d is not a request", k)
	}
	idLen := int(r.u16())
	if r.err == nil && idLen > binMaxDetectorID {
		r.fail("detector ID of %d bytes", idLen)
	}
	id := r.take(idLen)
	n := int(r.u32())
	arity := int(r.u32())
	br.DeadlineMS = int64(r.u64())
	br.DelayMS = int64(r.u64())
	if r.err != nil {
		return r.err
	}
	if n > binMaxFrameSamples || arity > binMaxFrameSamples || (arity > 0 && n > binMaxFrameSamples/arity) {
		return fmt.Errorf("serve: binary frame: %d samples × %d values exceeds the request bound", n, arity)
	}
	total := n * arity
	if cap(br.flat) < total {
		br.flat = make([]float64, total)
	}
	flat := br.flat[:total]
	for j := 0; j < arity; j++ {
		col := r.take(8 * n)
		if r.err != nil {
			return r.err
		}
		for i := 0; i < n; i++ {
			flat[i*arity+j] = math.Float64frombits(binary.LittleEndian.Uint64(col[8*i:]))
		}
	}
	if r.off != len(data) {
		return fmt.Errorf("serve: binary frame: %d trailing bytes", len(data)-r.off)
	}
	br.Detector = string(id)
	if cap(br.sampHdr) < n {
		br.sampHdr = make([]Sample, n)
	}
	samples := br.sampHdr[:n]
	for i := 0; i < n; i++ {
		samples[i] = Sample(flat[i*arity : (i+1)*arity : (i+1)*arity])
	}
	br.Samples = samples
	br.flat = flat[:0:cap(br.flat)]
	br.sampHdr = samples[:0:cap(br.sampHdr)]
	return nil
}

// DecodeBinaryRequest parses one request frame. The returned request
// does not alias data and owns freshly pooled buffers; Release it when
// the evaluation is over.
func DecodeBinaryRequest(data []byte) (*BinaryRequest, error) {
	br := getBinaryRequest()
	if err := br.decodeInto(data); err != nil {
		br.Release()
		return nil, err
	}
	return br, nil
}

// readBody slurps an HTTP request body into the pooled body buffer.
// Whatever was read stays in br.buf even when the read fails, so the
// JSON fallback can replay exactly the bytes a streaming decoder would
// have seen before the error.
func (br *BinaryRequest) readBody(body io.Reader) error {
	buf := br.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err != nil {
			br.buf = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// readBinaryRequest slurps a request frame from an HTTP body into the
// pooled body buffer and decodes it.
func readBinaryRequest(body io.Reader) (*BinaryRequest, error) {
	br := getBinaryRequest()
	err := br.readBody(body)
	if err == nil {
		err = br.decodeInto(br.buf)
	}
	if err != nil {
		br.Release()
		return nil, err
	}
	return br, nil
}

// EncodeBinaryResponse appends one response frame (with length prefix)
// to dst and returns the extended slice. generation is the bundle
// generation that served the evaluation.
func EncodeBinaryResponse(dst []byte, resp *EvalResponse, generation uint64) ([]byte, error) {
	if len(resp.Degraded) > binMaxDegradedLen {
		return nil, fmt.Errorf("serve: binary frame: degraded reason of %d bytes", len(resp.Degraded))
	}
	lenAt := len(dst)
	dst = appendUint32(dst, 0)
	dst = appendUint32(dst, binMagic)
	dst = append(dst, binVersion, binKindResponse)
	dst = appendUint64(dst, generation)
	dst = appendUint16(dst, uint16(len(resp.Degraded)))
	dst = append(dst, resp.Degraded...)
	dst = appendUint32(dst, uint32(resp.Evaluated))
	dst = appendUint32(dst, uint32(len(resp.Verdicts)))
	var acc byte
	for i, v := range resp.Verdicts {
		if v {
			acc |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst = append(dst, acc)
			acc = 0
		}
	}
	if len(resp.Verdicts)%8 != 0 {
		dst = append(dst, acc)
	}
	dst = appendUint32(dst, uint32(len(resp.Alarms)))
	for _, a := range resp.Alarms {
		dst = appendUint32(dst, uint32(a))
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, nil
}
