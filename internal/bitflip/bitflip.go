// Package bitflip implements the data-value fault models of a campaign.
// The default is the one assumed by the paper (§III-B): a single
// transient bit flip in the in-memory representation of a program
// variable, modelling transient hardware faults that corrupt values
// held in memory. Burst, stuck-at and intermittent faults extend it.
//
// Every model corrupts a variable the same way: Fault.Mask gives the
// XOR mask for a (kind, bit) cell, and the caller XORs it into the
// variable's raw bits — the IEEE-754 encoding of a float, the two's
// complement encoding of an integer, bit 0 of a bool. Flipping the sign
// bit of a float64 negates it; flipping bit 0 of a bool inverts it. This
// matches the error space explored by PROPANE-style single-bit-flip
// campaigns: one injected run per (variable, bit position, injection
// time).
//
// Role in the methodology: the fault model of Step 1 (fault injection
// analysis). Concurrency: the package is stateless pure functions over
// values; everything here is safe for unrestricted concurrent use.
package bitflip

import "fmt"

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
