// Quickstart: the complete methodology on one bundled dataset at a
// small scale — fault injection, preprocessing, baseline induction,
// refinement and predicate extraction in under a minute.
package main

import (
	"context"
	"fmt"
	"log"

	"edem"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	opts := edem.DefaultOptions()
	opts.TestCases = 5 // scale the campaign down for a quick demo
	opts.BitStride = 4

	// A small refinement grid: one point per treatment family.
	grid := []edem.SamplingConfig{
		{Kind: edem.Undersampling, Percent: 50},
		{Kind: edem.Oversampling, Percent: 300},
		{Kind: edem.Smote, Percent: 300, K: 5},
	}

	fmt.Println("Running the 4-step methodology on MG-B1 (Mp3Gain, RGain module)...")
	rep, err := edem.RunMethodology(context.Background(), "MG-B1", grid, opts)
	if err != nil {
		return err
	}

	fmt.Printf("\ncampaign: %d sampled states, %d failure-inducing\n", rep.Instances, rep.Failures)
	fmt.Printf("baseline C4.5 (10-fold CV):  TPR=%.4f FPR=%.2e AUC=%.4f (%.1f nodes)\n",
		rep.Baseline.MeanTPR, rep.Baseline.MeanFPR, rep.Baseline.MeanAUC, rep.Baseline.MeanComp)
	fmt.Printf("refined   (S=%s, N=%s):  TPR=%.4f FPR=%.2e AUC=%.4f (%.1f nodes)\n",
		rep.Refined.Best.Label(), rep.Refined.Best.KLabel(),
		rep.Refined.BestCV.MeanTPR, rep.Refined.BestCV.MeanFPR,
		rep.Refined.BestCV.MeanAUC, rep.Refined.BestCV.MeanComp)

	fmt.Printf("\ninduced decision tree (%d nodes):\n%s\n", rep.Tree.Size(), rep.Tree)
	fmt.Printf("\nextracted detector predicate:\n%s\n", rep.Predicate)

	// Deploy the predicate as a runtime assertion and repeat the fault
	// injection experiments (paper §VII-D).
	val, err := edem.Confirm(context.Background(), rep.ID, rep.Predicate, opts)
	if err != nil {
		return err
	}
	fmt.Printf("re-validation across %d repeated injected runs: TPR=%.4f FPR=%.2e\n",
		val.Runs, val.Counts.TPR(), val.Counts.FPR())
	fmt.Printf("detection latency over %d failing runs: %d detected, mean %.2f activations (max %d)\n",
		val.Failures, val.Detected, val.MeanLatency, val.MaxLatency)
	return nil
}
