package propane

import (
	"math"
	"testing"

	"edem/internal/bitflip"
)

// Float32Ref adapts a *float32 to a VarRef. No bundled target has a
// float32 variable; the tests keep the adapter so the fault-model
// tables cover the Float32 kind.
func Float32Ref(name string, p *float32) VarRef {
	return VarRef{Name: name, Kind: bitflip.Float32, ref: (*f32)(p)}
}

// IntRef adapts a *int to a VarRef, treating it as 64-bit; the tests
// keep it beside Float32Ref.
func IntRef(name string, p *int) VarRef {
	return VarRef{Name: name, Kind: bitflip.Int64, ref: (*goInt)(p)}
}

type (
	f32   float32
	goInt int
)

func (p *f32) read() float64       { return float64(*p) }
func (p *f32) bits() uint64        { return uint64(math.Float32bits(float32(*p))) }
func (p *f32) setBits(bits uint64) { *p = f32(math.Float32frombits(uint32(bits))) }

func (p *goInt) read() float64       { return float64(*p) }
func (p *goInt) bits() uint64        { return uint64(int64(*p)) }
func (p *goInt) setBits(bits uint64) { *p = goInt(int64(bits)) }

// refCase builds a VarRef of one kind over a fresh variable holding raw
// bits, and the oracle for FlipBit on that value: the raw bits after
// flipping an in-range bit, computed on the kind's own Go type.
type refCase struct {
	kind bitflip.Kind
	make func(raw uint64) VarRef
	flip func(raw uint64, bit int) uint64
}

var refCases = []refCase{
	{bitflip.Float64, func(raw uint64) VarRef {
		x := math.Float64frombits(raw)
		return Float64Ref("v", &x)
	}, func(raw uint64, bit int) uint64 {
		return math.Float64bits(math.Float64frombits(raw ^ 1<<bit))
	}},
	{bitflip.Float32, func(raw uint64) VarRef {
		x := math.Float32frombits(uint32(raw))
		return Float32Ref("v", &x)
	}, func(raw uint64, bit int) uint64 {
		mask, _ := bitflip.Fault{}.Mask(bitflip.Float32, bit)
		return uint64(uint32(raw)) ^ mask
	}},
	{bitflip.Int64, func(raw uint64) VarRef {
		x := int(int64(raw))
		return IntRef("v", &x)
	}, func(raw uint64, bit int) uint64 {
		return uint64(int64(raw) ^ int64(1)<<bit)
	}},
	{bitflip.Int32, func(raw uint64) VarRef {
		x := int32(uint32(raw))
		return Int32Ref("v", &x)
	}, func(raw uint64, bit int) uint64 {
		x := int32(uint32(raw))
		if bit == 31 {
			// The sign bit: the flip toggles MinInt32.
			return uint64(uint32(x ^ math.MinInt32))
		}
		return uint64(uint32(x ^ int32(1)<<bit))
	}},
	{bitflip.Uint64, func(raw uint64) VarRef {
		x := raw
		return Uint64Ref("v", &x)
	}, func(raw uint64, bit int) uint64 {
		return raw ^ 1<<bit
	}},
	{bitflip.Bool, func(raw uint64) VarRef {
		x := raw&1 == 1
		return BoolRef("v", &x)
	}, func(raw uint64, _ int) uint64 {
		if raw&1 == 1 {
			return 0 // true inverts to false
		}
		return 1
	}},
}

// checkRef holds one VarRef of c's kind over raw to the oracle at bit:
// Read and Bits see the value, FlipBit changes the oracle's bits or,
// for a bit outside the kind, returns a BadBitError and changes
// nothing, and SetBits restores the value.
func checkRef(t *testing.T, c refCase, raw uint64, bit int) {
	t.Helper()
	ref := c.make(raw)
	if ref.Kind != c.kind {
		t.Fatalf("%v adapter has kind %v", c.kind, ref.Kind)
	}
	start := ref.Bits()
	if c.kind.Bits() < 64 && start>>uint(c.kind.Bits()) != 0 {
		t.Fatalf("%v: Bits() = %#x is not zero-extended", c.kind, start)
	}
	if got, want := ref.Read(), readOracle(c.kind, start); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%v %#x: Read() = %v, want %v", c.kind, start, got, want)
	}
	want, wantErr := start, error(&bitflip.BadBitError{Kind: c.kind, Bit: bit})
	if bit >= 0 && bit < c.kind.Bits() {
		want, wantErr = c.flip(start, bit), nil
	}
	err := ref.FlipBit(bit)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%v %#x bit %d: FlipBit error %v, want %v", c.kind, start, bit, err, wantErr)
	}
	if got := ref.Bits(); got != want {
		t.Fatalf("%v %#x bit %d: FlipBit left %#x, want %#x", c.kind, start, bit, got, want)
	}
	ref.SetBits(start)
	if got := ref.Bits(); got != start {
		t.Fatalf("%v: SetBits(%#x) left %#x", c.kind, start, got)
	}
}

// readOracle is the float64 a variable of kind with machine
// representation raw reads as.
func readOracle(kind bitflip.Kind, raw uint64) float64 {
	switch kind {
	case bitflip.Float64:
		return math.Float64frombits(raw)
	case bitflip.Float32:
		return float64(math.Float32frombits(uint32(raw)))
	case bitflip.Int64:
		return float64(int64(raw))
	case bitflip.Int32:
		return float64(int32(uint32(raw)))
	case bitflip.Uint64:
		return float64(raw)
	default:
		return float64(raw & 1)
	}
}

// TestVarRefMatchesBitflip: for all six kinds, every in-range bit and
// the out-of-range bits on either side, a VarRef's Read, Bits, SetBits
// and FlipBit agree with the oracle, errors included.
func TestVarRefMatchesBitflip(t *testing.T) {
	raws := []uint64{0, 1, 0x7ff8000000000001, math.Float64bits(-1.5), 0x7fc00001, ^uint64(0), 1 << 63, 0xffffffff}
	for _, c := range refCases {
		for _, raw := range raws {
			for bit := -2; bit <= c.kind.Bits()+1; bit++ {
				checkRef(t, c, raw, bit)
			}
			checkRef(t, c, raw, 1<<40)
		}
	}
}

// FuzzVarRef: the table test's comparison over fuzzed kinds, values
// and bit indexes.
func FuzzVarRef(f *testing.F) {
	f.Add(uint8(0), uint64(0x3ff8000000000000), 63)
	f.Add(uint8(1), uint64(0x7fc00001), 31)
	f.Add(uint8(2), ^uint64(0), 64)
	f.Add(uint8(3), uint64(0x80000000), -1)
	f.Add(uint8(4), uint64(1)<<63, 0)
	f.Add(uint8(5), uint64(1), 1)
	f.Fuzz(func(t *testing.T, kind uint8, raw uint64, bit int) {
		checkRef(t, refCases[int(kind)%len(refCases)], raw, bit)
	})
}

// TestVarRefZeroAllocs: building a VarRef with an adapter and using
// every method allocates nothing.
func TestVarRefZeroAllocs(t *testing.T) {
	var (
		f  float64
		i  int64
		n  int32
		u  uint64
		b  bool
		f4 float32
		g  int
	)
	allocs := testing.AllocsPerRun(100, func() {
		for _, ref := range [...]VarRef{
			Float64Ref("f", &f), Int64Ref("i", &i), Int32Ref("n", &n), Uint64Ref("u", &u),
			BoolRef("b", &b), Float32Ref("f4", &f4), IntRef("g", &g),
		} {
			_ = ref.FlipBit(0)
			ref.SetBits(ref.Bits())
			_ = ref.Read()
		}
	})
	if allocs != 0 {
		t.Fatalf("VarRef adapters and methods: %v allocations per run, want 0", allocs)
	}
}

// TestVarRefZero: a VarRef that refers to no variable reads 0, has no
// bits, ignores SetBits and refuses every flip.
func TestVarRefZero(t *testing.T) {
	ref := VarRef{Name: "x", Kind: bitflip.Float64}
	ref.SetBits(1)
	if ref.Read() != 0 || ref.Bits() != 0 || ref.FlipBit(0) == nil {
		t.Fatalf("zero VarRef: Read %v, Bits %#x, FlipBit(0) %v", ref.Read(), ref.Bits(), ref.FlipBit(0))
	}
}
