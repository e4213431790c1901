// Package bitflip implements the transient data-value fault model assumed
// by the paper (§III-B): a single bit flip in the in-memory representation
// of a program variable, modelling transient hardware faults that corrupt
// values held in memory.
//
// Values are flipped at the representation level: float64 faults toggle a
// bit of the IEEE-754 encoding, integer faults toggle a bit of the two's
// complement encoding, and bool faults invert the value. This matches the
// error space explored by PROPANE-style single-bit-flip campaigns: one
// injected run per (variable, bit position, injection time).
//
// Role in the methodology: the fault model of Step 1 (fault injection
// analysis) — every injected campaign run applies exactly one of these
// flips. Concurrency: the package is stateless pure functions over
// values; everything here is safe for unrestricted concurrent use.
package bitflip

import (
	"fmt"
	"math"
)

// Kind identifies the machine representation of an instrumented variable.
type Kind int

// Supported variable representations.
const (
	Float64 Kind = iota + 1
	Float32
	Int64
	Int32
	Uint64
	Bool
)

// String returns the lower-case Go-like name of the kind.
func (k Kind) String() string {
	switch k {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	case Int64:
		return "int64"
	case Int32:
		return "int32"
	case Uint64:
		return "uint64"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Bits returns the number of distinct single-bit faults for the kind,
// i.e. the width of its machine representation (1 for bool).
func (k Kind) Bits() int {
	switch k {
	case Float64, Int64, Uint64:
		return 64
	case Float32, Int32:
		return 32
	case Bool:
		return 1
	default:
		return 0
	}
}

// BadBitError reports a bit index outside the representation width.
type BadBitError struct {
	Kind Kind
	Bit  int
}

func (e *BadBitError) Error() string {
	return fmt.Sprintf("bitflip: bit %d out of range for %s (width %d)", e.Bit, e.Kind, e.Kind.Bits())
}

// Float64 flips bit (0 = least significant of the IEEE-754 encoding) of x.
func Float64Bit(x float64, bit int) (float64, error) {
	if bit < 0 || bit >= 64 {
		return x, &BadBitError{Kind: Float64, Bit: bit}
	}
	return math.Float64frombits(math.Float64bits(x) ^ (1 << uint(bit))), nil
}

// Int64Bit flips bit of the two's-complement encoding of x.
func Int64Bit(x int64, bit int) (int64, error) {
	if bit < 0 || bit >= 64 {
		return x, &BadBitError{Kind: Int64, Bit: bit}
	}
	return x ^ (1 << uint(bit)), nil
}

// Int32Bit flips bit of the two's-complement encoding of x.
func Int32Bit(x int32, bit int) (int32, error) {
	if bit < 0 || bit >= 32 {
		return x, &BadBitError{Kind: Int32, Bit: bit}
	}
	return x ^ (1 << uint(bit)), nil
}

// Uint64Bit flips bit of x.
func Uint64Bit(x uint64, bit int) (uint64, error) {
	if bit < 0 || bit >= 64 {
		return x, &BadBitError{Kind: Uint64, Bit: bit}
	}
	return x ^ (1 << uint(bit)), nil
}

// BoolBit inverts x. Only bit 0 exists for booleans.
func BoolBit(x bool, bit int) (bool, error) {
	if bit != 0 {
		return x, &BadBitError{Kind: Bool, Bit: bit}
	}
	return !x, nil
}
