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

func TestFloat64BitKnown(t *testing.T) {
	// Sign bit flip negates.
	got, err := Float64Bit(1.5, 63)
	if err != nil || got != -1.5 {
		t.Errorf("sign flip = %v, %v", got, err)
	}
	// Lowest exponent bit of 1.0 (exp 1023 -> 1022) gives 0.5.
	got, err = Float64Bit(1.0, 52)
	if err != nil || got != 0.5 {
		t.Errorf("exponent flip = %v, %v", got, err)
	}
	// Lowest mantissa bit of 1.0 yields the next representable number.
	got, err = Float64Bit(1.0, 0)
	if err != nil || got != math.Nextafter(1.0, 2.0) {
		t.Errorf("mantissa flip = %v, %v", got, err)
	}
}

func TestFlipSelfInverse(t *testing.T) {
	// Flipping the same bit twice restores the value — the defining
	// property of a transient single-bit fault.
	f := func(x float64, bit uint8) bool {
		b := int(bit % 64)
		y, err := Float64Bit(x, b)
		if err != nil {
			return false
		}
		z, err := Float64Bit(y, b)
		if err != nil {
			return false
		}
		return math.Float64bits(z) == math.Float64bits(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(x int64, bit uint8) bool {
		b := int(bit % 64)
		y, _ := Int64Bit(x, b)
		z, _ := Int64Bit(y, b)
		return z == x
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestFlipChangesValue(t *testing.T) {
	f := func(x uint64, bit uint8) bool {
		b := int(bit % 64)
		y, _ := Uint64Bit(x, b)
		return y != x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInt64BitKnown(t *testing.T) {
	got, err := Int64Bit(0, 3)
	if err != nil || got != 8 {
		t.Errorf("Int64Bit(0,3) = %v, %v", got, err)
	}
	got, err = Int64Bit(8, 3)
	if err != nil || got != 0 {
		t.Errorf("Int64Bit(8,3) = %v, %v", got, err)
	}
	got, err = Int64Bit(0, 63)
	if err != nil || got != math.MinInt64 {
		t.Errorf("Int64Bit(0,63) = %v, %v", got, err)
	}
}

func TestInt32Float32Bool(t *testing.T) {
	i32, err := Int32Bit(1, 1)
	if err != nil || i32 != 3 {
		t.Errorf("Int32Bit = %v, %v", i32, err)
	}
	// Float32 variables flip through Bits/SetBits and the kind's mask;
	// bit 31 is the sign.
	mask, err := Fault{}.Mask(Float32, 31)
	if f32 := math.Float32frombits(math.Float32bits(1.0) ^ uint32(mask)); err != nil || f32 != -1.0 {
		t.Errorf("Float32 sign flip = %v, %v", f32, err)
	}
	b, err := BoolBit(false, 0)
	if err != nil || b != true {
		t.Errorf("BoolBit = %v, %v", b, err)
	}
	b, err = BoolBit(true, 0)
	if err != nil || b != false {
		t.Errorf("BoolBit = %v, %v", b, err)
	}
}

func TestBadBitErrors(t *testing.T) {
	var badBit *BadBitError
	if _, err := Float64Bit(1, 64); !errors.As(err, &badBit) {
		t.Errorf("Float64Bit(1, 64) error = %v", err)
	}
	if _, err := Float64Bit(1, -1); err == nil {
		t.Error("negative bit should error")
	}
	if _, err := (Fault{}).Mask(Float32, 32); !errors.As(err, &badBit) {
		t.Errorf("Mask(Float32, 32) error = %v", err)
	}
	if _, err := Int64Bit(1, 64); err == nil {
		t.Error("Int64Bit(64) should error")
	}
	if _, err := Int32Bit(1, 32); err == nil {
		t.Error("Int32Bit(32) should error")
	}
	if _, err := Uint64Bit(1, 64); err == nil {
		t.Error("Uint64Bit(64) should error")
	}
	if _, err := BoolBit(true, 1); err == nil {
		t.Error("BoolBit(1) should error")
	}
	if _, err := Float64Bit(1, 64); err == nil || err.Error() == "" {
		t.Error("BadBitError should render a message")
	}
}
