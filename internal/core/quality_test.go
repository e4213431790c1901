package core

import (
	"context"
	"fmt"
	"testing"
)

// TestBaselineQuality runs Steps 1-3 on representative datasets at the
// default laptop scale and checks the Table III shape invariants: high
// AUC everywhere, near-zero FPR, and the FG-B completeness plateau.
func TestBaselineQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline; skipped in -short mode")
	}
	opts := DefaultOptions()
	for _, tt := range []struct {
		id     string
		minTPR float64
		maxTPR float64
		maxFPR float64
		minAUC float64
	}{
		{id: "7Z-A1", minTPR: 0.85, maxTPR: 1.0, maxFPR: 0.02, minAUC: 0.92},
		{id: "7Z-B1", minTPR: 0.85, maxTPR: 1.0, maxFPR: 0.02, minAUC: 0.92},
		{id: "FG-A2", minTPR: 0.88, maxTPR: 1.0, maxFPR: 0.02, minAUC: 0.93},
		{id: "FG-B1", minTPR: 0.70, maxTPR: 0.93, maxFPR: 0.03, minAUC: 0.83},
		{id: "MG-A1", minTPR: 0.82, maxTPR: 1.0, maxFPR: 0.01, minAUC: 0.90},
		{id: "MG-B1", minTPR: 0.90, maxTPR: 1.0, maxFPR: 0.01, minAUC: 0.94},
	} {
		tt := tt
		t.Run(tt.id, func(t *testing.T) {
			t.Parallel()
			rows, err := Tables(context.Background(), []string{tt.id}, 3, false, opts, nil)
			if err != nil {
				t.Fatalf("Tables: %v", err)
			}
			row := rows[0].Baseline
			t.Log(fmt.Sprintf("%s FPR=%.2e TPR=%.4f AUC=%.4f Comp=%.1f Var=%.2e",
				row.Dataset, row.FPR, row.TPR, row.AUC, row.Comp, row.Var))
			if row.TPR < tt.minTPR || row.TPR > tt.maxTPR {
				t.Errorf("TPR %.4f outside [%.2f, %.2f]", row.TPR, tt.minTPR, tt.maxTPR)
			}
			if row.FPR > tt.maxFPR {
				t.Errorf("FPR %.2e above %.2e", row.FPR, tt.maxFPR)
			}
			if row.AUC < tt.minAUC {
				t.Errorf("AUC %.4f below %.2f", row.AUC, tt.minAUC)
			}
		})
	}
}
