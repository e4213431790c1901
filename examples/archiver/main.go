// Archiver example: learn a detector for the 7-Zip decoder module,
// install it as a live runtime assertion (a propane probe) and watch it
// flag corrupted decoder state during an injected run — the deployment
// path of paper §VII-D, shown at probe level rather than through the
// aggregate validation harness.
package main

import (
	"context"
	"fmt"
	"log"

	"edem"
	"edem/internal/propane"
	"edem/internal/targets/sevenzip"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	opts := edem.DefaultOptions()
	opts.TestCases = 6

	// Steps 1-4 on the decoder's entry point (7Z-B1).
	grid := []edem.SamplingConfig{
		{Kind: edem.Oversampling, Percent: 500},
		{Kind: edem.Smote, Percent: 500, K: 5},
		{Kind: edem.Undersampling, Percent: 50},
	}
	rep, err := edem.RunMethodology(ctx, "7Z-B1", grid, opts)
	if err != nil {
		return err
	}
	fmt.Printf("learnt detector for LDecode entry: %d clauses, CV TPR=%.4f FPR=%.2e\n",
		len(rep.Predicate.Clauses), rep.Refined.BestCV.MeanTPR, rep.Refined.BestCV.MeanFPR)

	// Install the predicate as a runtime assertion at the location it
	// was learnt for. The campaign sampled the decoder at files 2, 5, 7
	// and 9, so the assertion guards those activations.
	det, err := edem.NewDetector(sevenzip.ModuleLDecode, edem.Entry, rep.Predicate)
	if err != nil {
		return err
	}
	det.GuardActivations = []int{2, 5, 7, 9}

	// Drive one clean run on the training workload: an accurate
	// detector must stay silent.
	target := sevenzip.System{}
	tc := target.TestCases(1, opts.Seed)[0]
	if _, err := target.Run(tc, det); err != nil {
		return fmt.Errorf("clean run: %w", err)
	}
	fmt.Printf("clean run: %d activations observed, %d alarms\n", det.Visits, len(det.Alarms))

	// Now corrupt the decoder's window position mid-extraction while
	// the detector watches the same location.
	det.Reset()
	injector := &bitFlipper{module: sevenzip.ModuleLDecode, varName: "winPos", bit: 13, activation: 5}
	_, runErr := target.Run(tc, edem.Chain(injector, det))
	fmt.Printf("injected run: alarms at activations %v (run error: %v)\n", det.Alarms, runErr)
	if det.Triggered() {
		fmt.Println("the deployed detector flagged the corrupted state before the failure surfaced")
	}

	// Aggregate re-validation: repeat the fault injection experiments
	// with the detector's verdicts recorded (paper §VII-D).
	val, err := edem.Confirm(ctx, rep.ID, rep.Predicate, opts)
	if err != nil {
		return err
	}
	fmt.Printf("repeated-experiment validation (%d runs): TPR=%.4f FPR=%.2e\n",
		val.Runs, val.Counts.TPR(), val.Counts.FPR())
	return nil
}

// bitFlipper injects one bit flip at the nth activation of a module
// entry point, then stands aside.
type bitFlipper struct {
	module     string
	varName    string
	bit        int
	activation int
	count      int
	done       bool
}

func (p *bitFlipper) Visit(module string, loc propane.Location, vars []propane.VarRef) {
	if module != p.module || loc != propane.Entry || p.done {
		return
	}
	p.count++
	if p.count == p.activation {
		for _, v := range vars {
			if v.Name == p.varName {
				_ = v.FlipBit(p.bit)
			}
		}
		p.done = true
	}
}
