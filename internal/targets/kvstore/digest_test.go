package kvstore

import (
	"testing"

	"edem/internal/propane"
)

// TestDigestCoversVariables: flipping any bit of any instrumented
// variable in a snapshot changes Digest: Digest leaves out no
// variable, since none is a write-only statistic.
func TestDigestCoversVariables(t *testing.T) {
	target := System{Requests: 8}
	for _, tc := range target.TestCases(2, 5) {
		for _, m := range target.Modules() {
			for _, at := range []propane.Location{propane.Entry, propane.Exit} {
				for _, act := range []int{1, 2, 6, 7, 8} {
					base, ok, err := target.Snapshot(tc, m.Name, at, act)
					if err != nil || !ok {
						t.Fatalf("Snapshot(%s,%v,%d): ok=%v err=%v", m.Name, at, act, ok, err)
					}
					for i, v := range m.Vars {
						for _, bit := range propane.BitPlan(v.Kind, 1) {
							flipped := base.Clone().(*runState)
							refs, qu := flipped.refs()
							if m.Name == ModuleQuorum {
								refs = qu
							}
							if err := refs[i].FlipBit(bit); err != nil {
								t.Fatal(err)
							}
							if flipped.Digest() == base.Digest() {
								t.Fatalf("flipping bit %d of %s at (%s,%v,%d) left the digest unchanged", bit, v.Name, m.Name, at, act)
							}
						}
					}
				}
			}
		}
	}
}
