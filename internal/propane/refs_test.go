package propane

import (
	"math"

	"edem/internal/bitflip"
)

// Float32Ref adapts a *float32 to a VarRef. No bundled target has a
// float32 variable; the tests keep the adapter so the fault-model
// tables cover the Float32 kind.
func Float32Ref(name string, p *float32) VarRef {
	return VarRef{
		Name: name,
		Kind: bitflip.Float32,
		Read: func() float64 { return float64(*p) },
		FlipBit: func(bit int) error {
			mask, err := bitflip.Fault{}.Mask(bitflip.Float32, bit)
			if err != nil {
				return err
			}
			*p = math.Float32frombits(math.Float32bits(*p) ^ uint32(mask))
			return nil
		},
		Bits:    func() uint64 { return uint64(math.Float32bits(*p)) },
		SetBits: func(bits uint64) { *p = math.Float32frombits(uint32(bits)) },
	}
}

// IntRef adapts a *int to a VarRef, treating it as 64-bit; the tests
// keep it beside Float32Ref.
func IntRef(name string, p *int) VarRef {
	return VarRef{
		Name: name,
		Kind: bitflip.Int64,
		Read: func() float64 { return float64(*p) },
		FlipBit: func(bit int) error {
			v, err := bitflip.Int64Bit(int64(*p), bit)
			if err != nil {
				return err
			}
			*p = int(v)
			return nil
		},
		Bits:    func() uint64 { return uint64(int64(*p)) },
		SetBits: func(bits uint64) { *p = int(int64(bits)) },
	}
}
