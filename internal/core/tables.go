package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"edem/internal/mining/eval"
	"edem/internal/parallel"
)

// Row is one line of Table III or Table IV.
type Row struct {
	Dataset string
	S       string // sampling level, Table IV only
	N       string // SMOTE neighbour count, Table IV only
	FPR     float64
	TPR     float64
	AUC     float64
	Comp    float64
	Var     float64
}

// rowFromCV converts a cross-validation aggregate into a table row.
func rowFromCV(id string, cv *eval.CVResult) Row {
	return Row{
		Dataset: id,
		FPR:     cv.MeanFPR,
		TPR:     cv.MeanTPR,
		AUC:     cv.MeanAUC,
		Comp:    cv.MeanComp,
		Var:     cv.VarAUC,
	}
}

// TableRow is one dataset's line in each of Tables II-IV.
type TableRow struct {
	// DatasetInfo, Instances and Failures are the Table II inventory:
	// the campaign's usable sampled states and failure-inducing ones.
	DatasetInfo
	Instances int
	Failures  int
	// Baseline is the Table III row (tables 3 and 4): the untouched
	// column of the refinement search.
	Baseline Row
	// Refined is the Table IV row (table 4): the search's best
	// configuration.
	Refined Row
}

// Tables builds Tables II through table (2, 3 or 4) for ids in one pass
// per dataset: one campaign, and for tables 3 and 4 one preprocess and
// one Refine, whose untouched column is Table III and whose best
// configuration is Table IV (paper §VII-C computes both from the same
// stratified folds). Table 3 refines over the empty grid, table 4 over
// RefineGrid(full). Datasets run concurrently on the shared scheduler;
// rows keep ids order. progress, if non-nil, is called once per
// finished dataset (serialized, in completion order).
func Tables(ctx context.Context, ids []string, table int, full bool, opts Options, progress func(id string)) ([]TableRow, error) {
	if table < 2 || table > 4 {
		return nil, fmt.Errorf("core: no table %d to build (want 2, 3 or 4)", table)
	}
	var grid []SamplingConfig
	if table == 4 {
		grid = RefineGrid(full)
	}
	rows := make([]TableRow, len(ids))
	var mu sync.Mutex
	err := parallel.ForEach(ctx, len(ids), opts.Workers, func(i int) error {
		id := ids[i]
		info, err := Info(id, opts)
		if err != nil {
			return err
		}
		camp, err := Campaign(ctx, id, opts)
		if err != nil {
			return err
		}
		row := TableRow{DatasetInfo: info, Instances: camp.Usable(), Failures: camp.Failures()}
		if table >= 3 {
			d, err := Preprocess(ctx, camp)
			if err != nil {
				return err
			}
			ref, err := Refine(ctx, d, grid, opts)
			if err != nil {
				return err
			}
			row.Baseline = rowFromCV(id, ref.Evaluated[0].CV)
			if table == 4 {
				row.Refined = rowFromCV(id, ref.BestCV)
				row.Refined.S, row.Refined.N = ref.Best.Label(), ref.Best.KLabel()
			}
		}
		rows[i] = row
		if progress != nil {
			mu.Lock()
			progress(id)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatTables renders Tables II through table from rows built by
// Tables, one blank line between tables.
func FormatTables(rows []TableRow, table int) string {
	tables := []string{formatTable2(rows)}
	baseline := make([]Row, len(rows))
	refined := make([]Row, len(rows))
	for i, r := range rows {
		baseline[i], refined[i] = r.Baseline, r.Refined
	}
	if table >= 3 {
		tables = append(tables, formatTable("Table III: decision tree induction results (no sampling)", baseline))
	}
	if table >= 4 {
		tables = append(tables, formatTable("Table IV: decision tree induction results (refined)", refined))
	}
	return strings.Join(tables, "\n")
}

// formatTable renders rows in the layout of Tables III/IV. Table IV
// rows carry an S label, and then the refinement columns are included.
func formatTable(title string, rows []Row) string {
	refined := len(rows) > 0 && rows[0].S != ""
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	if refined {
		fmt.Fprintf(&sb, "%-8s %-8s %-3s %-9s %-7s %-7s %-7s %-9s\n",
			"Dataset", "S", "N", "FPR", "TPR", "AUC", "Comp", "Var")
	} else {
		fmt.Fprintf(&sb, "%-8s %-9s %-7s %-7s %-7s %-9s\n",
			"Dataset", "FPR", "TPR", "AUC", "Comp", "Var")
	}
	for _, r := range rows {
		if refined {
			fmt.Fprintf(&sb, "%-8s %-8s %-3s %-9.1e %-7.4f %-7.4f %-7.1f %-9.1e\n",
				r.Dataset, r.S, r.N, r.FPR, r.TPR, r.AUC, r.Comp, r.Var)
		} else {
			fmt.Fprintf(&sb, "%-8s %-9.1e %-7.4f %-7.4f %-7.1f %-9.1e\n",
				r.Dataset, r.FPR, r.TPR, r.AUC, r.Comp, r.Var)
		}
	}
	return sb.String()
}

// formatTable2 renders Table II, the dataset inventory, with measured
// campaign sizes appended.
func formatTable2(rows []TableRow) string {
	var sb strings.Builder
	sb.WriteString("Table II: summary of fault injection datasets\n")
	fmt.Fprintf(&sb, "%-8s %-11s %-10s %-9s %-8s %10s %10s\n",
		"Dataset", "Target", "Module", "Injection", "Sample", "Instances", "Failures")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-11s %-10s %-9s %-8s %10d %10d\n",
			r.ID, r.Target, r.Module, r.InjectAt, r.SampleAt, r.Instances, r.Failures)
	}
	return sb.String()
}

// PaperTable3 holds the paper's published Table III values, used by
// EXPERIMENTS.md and the shape-check tests.
var PaperTable3 = map[string]Row{
	"7Z-A1": {Dataset: "7Z-A1", FPR: 2e-05, TPR: 0.9979, AUC: 0.9989, Comp: 19.0, Var: 3e-08},
	"7Z-A2": {Dataset: "7Z-A2", FPR: 0, TPR: 0.9979, AUC: 0.9989, Comp: 11.0, Var: 1e-08},
	"7Z-A3": {Dataset: "7Z-A3", FPR: 0, TPR: 0.9987, AUC: 0.9993, Comp: 11.0, Var: 1e-08},
	"7Z-B1": {Dataset: "7Z-B1", FPR: 1e-04, TPR: 0.9435, AUC: 0.9717, Comp: 58.1, Var: 3e-04},
	"7Z-B2": {Dataset: "7Z-B2", FPR: 0, TPR: 0.9691, AUC: 0.9845, Comp: 5.0, Var: 1e-09},
	"7Z-B3": {Dataset: "7Z-B3", FPR: 0, TPR: 0.9654, AUC: 0.9827, Comp: 9.0, Var: 9e-10},
	"FG-A1": {Dataset: "FG-A1", FPR: 2e-04, TPR: 0.9906, AUC: 0.9951, Comp: 100.3, Var: 7e-08},
	"FG-A2": {Dataset: "FG-A2", FPR: 3e-03, TPR: 0.9807, AUC: 0.9891, Comp: 136.4, Var: 3e-06},
	"FG-A3": {Dataset: "FG-A3", FPR: 6e-04, TPR: 0.9878, AUC: 0.9936, Comp: 75.9, Var: 3e-06},
	"FG-B1": {Dataset: "FG-B1", FPR: 1e-04, TPR: 0.7929, AUC: 0.8964, Comp: 61.1, Var: 1e-32},
	"FG-B2": {Dataset: "FG-B2", FPR: 1e-05, TPR: 0.9584, AUC: 0.9791, Comp: 172.3, Var: 1e-06},
	"FG-B3": {Dataset: "FG-B3", FPR: 1e-04, TPR: 0.8223, AUC: 0.9111, Comp: 62.8, Var: 6e-08},
	"MG-A1": {Dataset: "MG-A1", FPR: 1e-09, TPR: 0.9938, AUC: 0.9969, Comp: 7.0, Var: 1e-09},
	"MG-A2": {Dataset: "MG-A2", FPR: 3e-04, TPR: 0.9938, AUC: 0.9967, Comp: 7.2, Var: 7e-08},
	"MG-A3": {Dataset: "MG-A3", FPR: 0, TPR: 0.9989, AUC: 0.9995, Comp: 9.2, Var: 1e-32},
	"MG-B1": {Dataset: "MG-B1", FPR: 0, TPR: 0.9740, AUC: 0.9870, Comp: 7.0, Var: 1e-32},
	"MG-B2": {Dataset: "MG-B2", FPR: 0, TPR: 0.9740, AUC: 0.9870, Comp: 7.0, Var: 1e-32},
	"MG-B3": {Dataset: "MG-B3", FPR: 0, TPR: 0.9728, AUC: 0.9864, Comp: 3.2, Var: 1e-30},
}

// PaperTable4 holds the paper's published Table IV values.
var PaperTable4 = map[string]Row{
	"7Z-A1": {Dataset: "7Z-A1", S: "85(U)", N: "-", FPR: 2e-05, TPR: 0.9982, AUC: 0.9991, Comp: 19.0, Var: 2e-09},
	"7Z-A2": {Dataset: "7Z-A2", S: "300(O)", N: "4", FPR: 5e-05, TPR: 0.9983, AUC: 0.9991, Comp: 34.3, Var: 5e-08},
	"7Z-A3": {Dataset: "7Z-A3", S: "500(O)", N: "14", FPR: 0, TPR: 0.9991, AUC: 0.9996, Comp: 11.9, Var: 6e-32},
	"7Z-B1": {Dataset: "7Z-B1", S: "300(O)", N: "12", FPR: 1e-03, TPR: 0.9984, AUC: 0.9985, Comp: 67.4, Var: 6e-07},
	"7Z-B2": {Dataset: "7Z-B2", S: "900(O)", N: "6", FPR: 3e-04, TPR: 0.9876, AUC: 0.9937, Comp: 9.9, Var: 6e-05},
	"7Z-B3": {Dataset: "7Z-B3", S: "700(O)", N: "7", FPR: 7e-05, TPR: 0.9999, AUC: 0.9999, Comp: 13.5, Var: 3e-08},
	"FG-A1": {Dataset: "FG-A1", S: "500(O)", N: "12", FPR: 1e-03, TPR: 0.9966, AUC: 0.9977, Comp: 113.7, Var: 8e-08},
	"FG-A2": {Dataset: "FG-A2", S: "900(O)", N: "1", FPR: 4e-03, TPR: 0.9995, AUC: 0.9978, Comp: 174.5, Var: 1e-08},
	"FG-A3": {Dataset: "FG-A3", S: "500(O)", N: "11", FPR: 1e-03, TPR: 0.9963, AUC: 0.9974, Comp: 113.2, Var: 1e-07},
	"FG-B1": {Dataset: "FG-B1", S: "35(U)", N: "-", FPR: 1e-02, TPR: 0.7963, AUC: 0.8964, Comp: 68.3, Var: 2e-05},
	"FG-B2": {Dataset: "FG-B2", S: "500(O)", N: "-", FPR: 2e-04, TPR: 0.9628, AUC: 0.9813, Comp: 173.1, Var: 3e-10},
	"FG-B3": {Dataset: "FG-B3", S: "500(O)", N: "-", FPR: 2e-04, TPR: 0.8229, AUC: 0.9114, Comp: 61.2, Var: 3e-10},
	"MG-A1": {Dataset: "MG-A1", S: "100(O)", N: "2", FPR: 0, TPR: 0.9938, AUC: 0.9969, Comp: 7.0, Var: 1e-32},
	"MG-A2": {Dataset: "MG-A2", S: "40(U)", N: "-", FPR: 0, TPR: 0.9938, AUC: 0.9969, Comp: 7.0, Var: 1e-32},
	"MG-A3": {Dataset: "MG-A3", S: "5(U)", N: "-", FPR: 0, TPR: 0.9989, AUC: 0.9995, Comp: 9.0, Var: 1e-32},
	"MG-B1": {Dataset: "MG-B1", S: "75(U)", N: "-", FPR: 0, TPR: 0.9740, AUC: 0.9870, Comp: 7.0, Var: 1e-32},
	"MG-B2": {Dataset: "MG-B2", S: "5(U)", N: "-", FPR: 0, TPR: 0.9740, AUC: 0.9870, Comp: 7.0, Var: 4e-17},
	"MG-B3": {Dataset: "MG-B3", S: "5(U)", N: "-", FPR: 0, TPR: 0.9728, AUC: 0.9864, Comp: 3.3, Var: 1e-28},
}
