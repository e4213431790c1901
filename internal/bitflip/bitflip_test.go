package bitflip

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestKindBits(t *testing.T) {
	for _, tt := range []struct {
		kind Kind
		want int
	}{
		{Float64, 64}, {Float32, 32}, {Int64, 64}, {Int32, 32}, {Uint64, 64}, {Bool, 1},
		{Kind(0), 0},
	} {
		if got := tt.kind.Bits(); got != tt.want {
			t.Errorf("%v.Bits() = %d, want %d", tt.kind, got, tt.want)
		}
	}
}

func TestKindString(t *testing.T) {
	for _, tt := range []struct {
		kind Kind
		want string
	}{
		{Float64, "float64"}, {Float32, "float32"}, {Int64, "int64"},
		{Int32, "int32"}, {Uint64, "uint64"}, {Bool, "bool"}, {Kind(99), "Kind(99)"},
	} {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// flip XORs the transient mask of (kind, bit) into raw, as VarRef
// does; it fails the test if the mask is refused.
func flip(t *testing.T, kind Kind, raw uint64, bit int) uint64 {
	t.Helper()
	mask, err := Fault{}.Mask(kind, bit)
	if err != nil {
		t.Fatalf("Mask(%v, %d): %v", kind, bit, err)
	}
	return raw ^ mask
}

func flip64(t *testing.T, x float64, bit int) float64 {
	return math.Float64frombits(flip(t, Float64, math.Float64bits(x), bit))
}

func TestFloat64BitKnown(t *testing.T) {
	// Sign bit flip negates.
	if got := flip64(t, 1.5, 63); got != -1.5 {
		t.Errorf("sign flip = %v", got)
	}
	// Lowest exponent bit of 1.0 (exp 1023 -> 1022) gives 0.5.
	if got := flip64(t, 1.0, 52); got != 0.5 {
		t.Errorf("exponent flip = %v", got)
	}
	// Lowest mantissa bit of 1.0 yields the next representable number.
	if got := flip64(t, 1.0, 0); got != math.Nextafter(1.0, 2.0) {
		t.Errorf("mantissa flip = %v", got)
	}
}

func TestFlipSelfInverse(t *testing.T) {
	// Flipping the same bit twice restores the value — the defining
	// property of a transient single-bit fault.
	f := func(x float64, bit uint8) bool {
		b := int(bit % 64)
		return math.Float64bits(flip64(t, flip64(t, x, b), b)) == math.Float64bits(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(x int64, bit uint8) bool {
		b := int(bit % 64)
		return int64(flip(t, Int64, flip(t, Int64, uint64(x), b), b)) == x
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestFlipChangesValue(t *testing.T) {
	f := func(x uint64, bit uint8) bool {
		return flip(t, Uint64, x, int(bit%64)) != x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInt64BitKnown(t *testing.T) {
	if got := int64(flip(t, Int64, 0, 3)); got != 8 {
		t.Errorf("flip(0, 3) = %v", got)
	}
	if got := int64(flip(t, Int64, 8, 3)); got != 0 {
		t.Errorf("flip(8, 3) = %v", got)
	}
	if got := int64(flip(t, Int64, 0, 63)); got != math.MinInt64 {
		t.Errorf("flip(0, 63) = %v", got)
	}
}

func TestInt32Float32Bool(t *testing.T) {
	if got := int32(uint32(flip(t, Int32, 1, 1))); got != 3 {
		t.Errorf("Int32 flip(1, 1) = %v", got)
	}
	// Bit 31 is the sign of both 32-bit kinds.
	if got := int32(uint32(flip(t, Int32, 1, 31))); got != math.MinInt32+1 {
		t.Errorf("Int32 flip(1, 31) = %v", got)
	}
	if got := math.Float32frombits(uint32(flip(t, Float32, uint64(math.Float32bits(1.0)), 31))); got != -1.0 {
		t.Errorf("Float32 sign flip = %v", got)
	}
	// A bool is bit 0: the flip inverts it.
	if got := flip(t, Bool, 0, 0); got != 1 {
		t.Errorf("Bool flip(false) = %v", got)
	}
	if got := flip(t, Bool, 1, 0); got != 0 {
		t.Errorf("Bool flip(true) = %v", got)
	}
}

func TestBadBitErrors(t *testing.T) {
	var badBit *BadBitError
	for _, tt := range []struct {
		kind Kind
		bit  int
	}{
		{Float64, 64}, {Float64, -1}, {Float32, 32}, {Int64, 64}, {Int32, 32},
		{Uint64, 64}, {Bool, 1}, {Bool, -1},
	} {
		_, err := Fault{}.Mask(tt.kind, tt.bit)
		if !errors.As(err, &badBit) || badBit.Kind != tt.kind || badBit.Bit != tt.bit {
			t.Errorf("Mask(%v, %d) error = %v, want a BadBitError", tt.kind, tt.bit, err)
		} else if err.Error() == "" {
			t.Error("BadBitError should render a message")
		}
	}
}
