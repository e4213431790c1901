package predicate

import (
	"math"
	"sync"
	"testing"

	"edem/internal/propane"
)

// mustDetector installs pred at M's exit, failing the test if it does
// not compile.
func mustDetector(t *testing.T, pred *Predicate) *Detector {
	t.Helper()
	det, err := NewDetector("M", propane.Exit, pred)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestNewDetectorRefusesUncompilable pins the single evaluation path:
// a predicate Compile refuses (an unknown operator, an index past the
// int32 table column) has no detector, rather than an interpreted one.
func TestNewDetectorRefusesUncompilable(t *testing.T) {
	for name, a := range map[string]Atom{
		"unknown-op": {Var: "v", Index: 0, Op: Op(0), Threshold: 1},
		"huge-index": {Var: "v", Index: math.MaxInt32 + 1, Op: GT, Threshold: 1},
	} {
		pred := &Predicate{Name: name, Vars: []string{"v"}, Clauses: []Clause{{a}}}
		if det, err := NewDetector("M", propane.Exit, pred); err == nil || det != nil {
			t.Fatalf("%s: NewDetector = %v, %v; want a compile error", name, det, err)
		}
	}
	if _, err := NewDetector("M", propane.Exit, nil); err == nil {
		t.Fatal("nil predicate accepted")
	}
}

func TestDetectorFlagsCorruptState(t *testing.T) {
	pred := &Predicate{
		Name: "d",
		Vars: []string{"v"},
		Clauses: []Clause{
			{{Var: "v", Index: 0, Op: GT, Threshold: 100}},
		},
	}
	det := mustDetector(t, pred)

	v := 5.0
	vars := []propane.VarRef{propane.Float64Ref("v", &v)}

	det.Visit("M", propane.Exit, vars) // healthy
	v = 500
	det.Visit("M", propane.Exit, vars) // corrupt
	v = 50
	det.Visit("M", propane.Exit, vars) // healthy again

	if det.Visits != 3 {
		t.Fatalf("visits = %d", det.Visits)
	}
	if !det.Triggered() || len(det.Alarms) != 1 || det.Alarms[0] != 2 {
		t.Fatalf("alarms = %v", det.Alarms)
	}
}

func TestDetectorIgnoresOtherLocations(t *testing.T) {
	pred := &Predicate{Clauses: []Clause{{{Index: 0, Op: GT, Threshold: 0}}}}
	det := mustDetector(t, pred)
	v := 5.0
	vars := []propane.VarRef{propane.Float64Ref("v", &v)}
	det.Visit("M", propane.Entry, vars)
	det.Visit("Other", propane.Exit, vars)
	if det.Visits != 0 || det.Triggered() {
		t.Fatalf("detector observed foreign locations: %+v", det)
	}
}

func TestDetectorReset(t *testing.T) {
	pred := &Predicate{Clauses: []Clause{{{Index: 0, Op: GT, Threshold: 0}}}}
	det := mustDetector(t, pred)
	v := 5.0
	det.Visit("M", propane.Exit, []propane.VarRef{propane.Float64Ref("v", &v)})
	if !det.Triggered() {
		t.Fatal("should trigger")
	}
	det.Reset()
	if det.Visits != 0 || det.Triggered() {
		t.Fatal("reset did not clear state")
	}
}

func TestDetectorInChain(t *testing.T) {
	// A detector composes with other probes via propane.Chain.
	pred := &Predicate{Clauses: []Clause{{{Index: 0, Op: GT, Threshold: 10}}}}
	det := mustDetector(t, pred)
	v := 50.0
	vars := []propane.VarRef{propane.Float64Ref("v", &v)}
	chain := propane.Chain(propane.NopProbe{}, det)
	chain.Visit("M", propane.Exit, vars)
	if !det.Triggered() {
		t.Fatal("chained detector did not observe the visit")
	}
}

// TestDetectorConcurrentVisits exercises the concurrency contract
// under -race: many goroutines visiting (and one resetting between
// rounds) must neither race nor lose counts.
func TestDetectorConcurrentVisits(t *testing.T) {
	pred := &Predicate{Clauses: []Clause{{{Index: 0, Op: GT, Threshold: 10}}}}
	det := mustDetector(t, pred)
	const goroutines, visitsEach = 8, 200
	for round := 0; round < 3; round++ {
		det.Reset()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				v := float64(g * 10) // g>1 exceeds the threshold
				vars := []propane.VarRef{propane.Float64Ref("v", &v)}
				for i := 0; i < visitsEach; i++ {
					det.Visit("M", propane.Exit, vars)
				}
			}(g)
		}
		wg.Wait()
		if got := det.VisitCount(); got != goroutines*visitsEach {
			t.Fatalf("round %d: visits = %d, want %d", round, got, goroutines*visitsEach)
		}
		// Goroutines with g*10 > 10 (six of eight) alarm on every visit.
		if got := len(det.AlarmIndices()); got != 6*visitsEach {
			t.Fatalf("round %d: alarms = %d, want %d", round, got, 6*visitsEach)
		}
	}
}

// TestDetectorConcurrentGuardedVisits runs the guarded path under
// -race: the guard set is built once and read concurrently.
func TestDetectorConcurrentGuardedVisits(t *testing.T) {
	pred := &Predicate{Clauses: []Clause{{{Index: 0, Op: GT, Threshold: 0}}}}
	det := mustDetector(t, pred)
	det.GuardActivations = []int{1, 3, 5, 7, 11, 400}
	v := 5.0
	vars := []propane.VarRef{propane.Float64Ref("v", &v)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				det.Visit("M", propane.Exit, vars)
			}
		}()
	}
	wg.Wait()
	if got := det.VisitCount(); got != 400 {
		t.Fatalf("visits = %d, want 400", got)
	}
	// All six guarded activation numbers occur within 400 visits, and
	// every guarded visit alarms (v > 0).
	if got := len(det.AlarmIndices()); got != len(det.GuardActivations) {
		t.Fatalf("alarms = %d, want %d", got, len(det.GuardActivations))
	}
}

func TestDetectorGuardActivations(t *testing.T) {
	pred := &Predicate{Clauses: []Clause{{{Index: 0, Op: GT, Threshold: 0}}}}
	det := mustDetector(t, pred)
	det.GuardActivations = []int{2}
	v := 5.0 // always above threshold
	vars := []propane.VarRef{propane.Float64Ref("v", &v)}
	det.Visit("M", propane.Exit, vars) // activation 1: not guarded
	det.Visit("M", propane.Exit, vars) // activation 2: guarded
	det.Visit("M", propane.Exit, vars) // activation 3: not guarded
	if det.Visits != 3 {
		t.Fatalf("visits = %d", det.Visits)
	}
	if len(det.Alarms) != 1 || det.Alarms[0] != 2 {
		t.Fatalf("alarms = %v, want [2]", det.Alarms)
	}
}
