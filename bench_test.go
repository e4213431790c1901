// Benchmark harness: one benchmark per paper table and figure, plus the
// ablations called out in DESIGN.md §6. Each benchmark regenerates the
// corresponding artefact and reports the headline quantities through
// b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation at laptop scale. Set
// EDEM_BENCH_SCALE=paper for campaign sizes closer to the paper's
// (every bit position, more test cases); the default keeps the full
// 18-dataset sweep in the minutes range.
package edem

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"edem/internal/bitflip"
	"edem/internal/campaign"
	"edem/internal/core"
	"edem/internal/dataset"
	"edem/internal/fabric"
	"edem/internal/mining/eval"
	"edem/internal/mining/sampling"
	"edem/internal/mining/tree"
	"edem/internal/predicate"
	"edem/internal/propane"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// benchOpts returns the campaign scale used by the benchmarks.
func benchOpts() core.Options {
	opts := core.DefaultOptions()
	if os.Getenv("EDEM_BENCH_SCALE") == "paper" {
		opts.BitStride = 1
		opts.TestCases = 25
		return opts
	}
	// Laptop scale: fewer workloads, strided low mantissa bits. The
	// dense sign/exponent coverage is kept (see propane.BitPlan).
	opts.TestCases = 6
	opts.BitStride = 4
	return opts
}

// datasetCache builds each fault-injection dataset once per process; the
// campaigns are deterministic so sharing them across benchmarks only
// removes redundant work.
var datasetCache sync.Map // id -> *dataset.Dataset

func benchDataset(b *testing.B, id string) *dataset.Dataset {
	b.Helper()
	if d, ok := datasetCache.Load(id); ok {
		return d.(*dataset.Dataset)
	}
	d, _, err := core.BuildDataset(context.Background(), id, benchOpts())
	if err != nil {
		b.Fatalf("build dataset %s: %v", id, err)
	}
	datasetCache.Store(id, d)
	return d
}

// -----------------------------------------------------------------------------
// Table I — confusion matrix metrics (definitional micro-benchmark).

func BenchmarkTable1_ConfusionMetrics(b *testing.B) {
	cm := eval.NewConfusionMatrix([]string{"nonfailure", "failure"})
	for i := 0; i < 1000; i++ {
		_ = cm.Record(i%2, (i/3)%2, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bin := cm.Binary(1)
		_ = bin.TPR()
		_ = bin.FPR()
		_ = bin.AUC()
		_ = bin.F1()
		_ = bin.GeometricMean()
		_ = bin.DistanceFromPerfect()
	}
}

// -----------------------------------------------------------------------------
// Table II — the 18 fault-injection campaigns.

func BenchmarkTable2_CampaignGeneration(b *testing.B) {
	opts := benchOpts()
	for _, id := range core.AllDatasetIDs() {
		id := id
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp, err := core.Campaign(context.Background(), id, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(camp.Usable()), "instances")
				b.ReportMetric(float64(camp.Failures()), "failures")
			}
		})
	}
}

// -----------------------------------------------------------------------------
// Table III — baseline decision tree induction (no sampling).

func BenchmarkTable3_BaselineInduction(b *testing.B) {
	opts := benchOpts()
	for _, id := range core.AllDatasetIDs() {
		id := id
		b.Run(id, func(b *testing.B) {
			d := benchDataset(b, id)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cv, err := core.Baseline(context.Background(), d, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(cv.MeanTPR, "TPR")
				b.ReportMetric(cv.MeanFPR, "FPR")
				b.ReportMetric(cv.MeanAUC, "AUC")
				b.ReportMetric(cv.MeanComp, "nodes")
			}
		})
	}
}

// -----------------------------------------------------------------------------
// Table IV — model refinement over the sampling grid.

func BenchmarkTable4_Refinement(b *testing.B) {
	opts := benchOpts()
	grid := core.RefineGrid(false)
	for _, id := range core.AllDatasetIDs() {
		id := id
		b.Run(id, func(b *testing.B) {
			d := benchDataset(b, id)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref, err := core.Refine(context.Background(), d, grid, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(ref.BestCV.MeanTPR, "TPR")
				b.ReportMetric(ref.BestCV.MeanFPR, "FPR")
				b.ReportMetric(ref.BestCV.MeanAUC, "AUC")
				b.ReportMetric(ref.BestCV.MeanComp, "nodes")
			}
		})
	}
}

// -----------------------------------------------------------------------------
// Figure 2 — decision tree induction and predicate extraction.

func BenchmarkFigure2_TreeToPredicate(b *testing.B) {
	d := benchDataset(b, "FG-A2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := core.DefaultLearner().FitTree(d)
		if err != nil {
			b.Fatal(err)
		}
		pred, err := predicate.FromTree(t, eval.PositiveClass, "FG-A2")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(t.Size()), "nodes")
		b.ReportMetric(float64(pred.Complexity()), "atoms")
	}
}

// -----------------------------------------------------------------------------
// §VII-D — deployed-detector re-validation.

func BenchmarkValidation_DeployedDetector(b *testing.B) {
	opts := benchOpts()
	d := benchDataset(b, "MG-B1")
	t, err := core.DefaultLearner().FitTree(d)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := predicate.FromTree(t, eval.PositiveClass, "MG-B1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val, err := core.Confirm(context.Background(), "MG-B1", pred, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(val.Counts.TPR(), "TPR")
		b.ReportMetric(val.Counts.FPR(), "FPR")
	}
}

// Ablation: SMOTE interpolation vs oversampling with replacement (q=0),
// each a one-point refinement grid.

func BenchmarkAblation_SMOTEvsReplacement(b *testing.B) {
	d := benchDataset(b, "FG-B1")
	points := []struct {
		name string
		cfg  core.SamplingConfig
	}{
		{"smote-500-k5", core.SamplingConfig{Kind: core.Smote, Percent: 500, K: 5}},
		{"replacement-500", core.SamplingConfig{Kind: core.Oversampling, Percent: 500}},
	}
	for _, tt := range points {
		tt := tt
		b.Run(tt.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ref, err := core.Refine(context.Background(), d, []core.SamplingConfig{tt.cfg}, core.Options{Folds: 10, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				cv := ref.Evaluated[1].CV
				b.ReportMetric(cv.MeanAUC, "AUC")
				b.ReportMetric(cv.MeanTPR, "TPR")
			}
		})
	}
}

// Micro-benchmarks of the hot paths: induction, sampling, prediction.

func BenchmarkMicro_C45Induction(b *testing.B) {
	d := benchDataset(b, "FG-A2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DefaultLearner().FitTree(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_SMOTE times one standalone SMOTE view (neighbour
// search, synthetic rows, merged sort orders) over a columnar store of
// FG-B1, the transform the refinement grid runs.
func BenchmarkMicro_SMOTE(b *testing.B) {
	st := dataset.NewStore(benchDataset(b, "FG-B1"), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.SMOTEView(st, eval.PositiveClass, 300, 5, stats.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_NeighborIndex times the per-fold SMOTE neighbour index
// the refinement grid shares across its SMOTE cells: the 14 nearest
// minority neighbours of every minority row of one KV-A2 training fold.
func BenchmarkMicro_NeighborIndex(b *testing.B) {
	d := benchDataset(b, "KV-A2")
	folds, err := dataset.StratifiedKFold(d, 10, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	st := dataset.NewStore(d, folds[0].Train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.BuildViewIndex(st, eval.PositiveClass, 14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_PredicateEval(b *testing.B) {
	d := benchDataset(b, "FG-A2")
	t, err := core.DefaultLearner().FitTree(d)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := predicate.FromTree(t, eval.PositiveClass, "bench")
	if err != nil {
		b.Fatal(err)
	}
	states := make([][]float64, 0, 256)
	for i := 0; i < 256 && i < d.Len(); i++ {
		states = append(states, d.Instances[i].Values)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pred.Eval(states[i%len(states)])
	}
}

func sinkTable(rows []core.TableRow) string { return core.FormatTables(rows, 3) }

// BenchmarkTables_EndToEnd regenerates Table III rows end to end
// (campaign + preprocessing + cross-validation) for one dataset per
// target system — the full per-row cost of the harness.
func BenchmarkTables_EndToEnd(b *testing.B) {
	opts := benchOpts()
	for _, id := range []string{"7Z-A1", "FG-B1", "MG-B1"} {
		id := id
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := core.Tables(context.Background(), []string{id}, 3, false, opts, nil)
				if err != nil {
					b.Fatal(err)
				}
				_ = sinkTable(rows)
				b.ReportMetric(rows[0].Baseline.AUC, "AUC")
			}
		})
	}
}

// Worker-scaling benchmarks for the three re-plumbed layers. Results
// are bit-identical at every worker count (see DESIGN.md §8); on a
// multi-core machine workers=0 (the full budget) should beat workers=1
// roughly linearly until the fold/cell count saturates.

func BenchmarkMicro_CrossValidate(b *testing.B) {
	d := benchDataset(b, "FG-A2")
	for _, w := range []int{1, 0} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{Folds: 10, Seed: 1, Workers: w}
				if _, err := core.CrossValidate(context.Background(), tree.Learner{}, d, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRefine_Workers(b *testing.B) {
	grid := core.RefineGrid(false)
	d := benchDataset(b, "MG-B1")
	for _, w := range []int{1, 0} {
		opts := benchOpts()
		opts.Workers = w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Refine(context.Background(), d, grid, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTables_ParallelRows measures the dataset-row fan-out added
// on top of the per-row parallelism: three Table III rows generated
// concurrently on the shared budget.
// syntheticGridDataset is a deterministic imbalanced campaign-log
// stand-in for the refinement-grid benchmarks: numeric module state
// with an ~8% failure minority, large enough that per-cell clone and
// re-sort costs dominate the grid's wall clock.
func syntheticGridDataset(n int, seed uint64) *dataset.Dataset {
	attrs := make([]dataset.Attribute, 8)
	for i := range attrs {
		attrs[i] = dataset.NumericAttr(fmt.Sprintf("v%d", i))
	}
	d := dataset.New("grid-bench", attrs, []string{"nonfailure", "failure"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		vs := make([]float64, len(attrs))
		for a := range vs {
			vs[a] = rng.Float64() * 100
		}
		class := 0
		if vs[0] > 92 || (vs[1] > 95 && vs[2] > 40) {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: vs, Class: class, Weight: 1})
	}
	return d
}

// BenchmarkRefineGrid is the end-to-end Step 4 kernel: the full reduced
// sampling grid (20 configurations + baseline × 10 folds) over a
// synthetic campaign log. This is the headline number for the
// fold-shared columnar store; scripts/bench.sh records ns/op and
// allocs/op into BENCH_refine.json.
func BenchmarkRefineGrid(b *testing.B) {
	d := syntheticGridDataset(2000, 11)
	grid := core.RefineGrid(false)
	for _, w := range []int{1, 0} {
		opts := core.DefaultOptions()
		opts.Workers = w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Refine(context.Background(), d, grid, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaign measures the resumable campaign engine against the
// single-shot reference path on one mid-sized campaign (7Z-B2, chosen
// over the former MG-A1 grid because its solid-archive decode repeats
// the longest shared prefix per cell — the workload class the fork fast
// path exists for): propane is the single-shot reference loop, engine
// adds sharding/retry bookkeeping, slow runs the engine on the same
// target with Forkable hidden (the slow-path oracle: every cell from
// iteration zero), journaled adds checkpoint writes, and replay resumes
// a complete journal — the cost of rebuilding the dataset with zero
// target runs. Every sub-benchmark reports end-to-end throughput in
// runs/s; the engine-vs-propane gap is the fault-tolerance overhead,
// the engine-vs-slow ratio is the fork speedup (target ≥10×) and the
// replay-vs-journaled gap is the resume saving (EXPERIMENTS.md).
func BenchmarkCampaign(b *testing.B) {
	opts := benchOpts()
	target, spec, err := core.SpecFor("7Z-B2", opts)
	if err != nil {
		b.Fatal(err)
	}
	plan := len(spec.Jobs(mustModule(b, target, spec.Module)))
	report := func(b *testing.B) {
		b.ReportMetric(float64(plan*b.N)/b.Elapsed().Seconds(), "runs/s")
	}

	b.Run("propane", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := propane.Run(context.Background(), target, spec); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("slow", func(b *testing.B) {
		slow := struct{ propane.Target }{target}
		for i := 0; i < b.N; i++ {
			if _, err := campaign.Run(context.Background(), slow, spec, campaign.Config{}); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := campaign.Run(context.Background(), target, spec, campaign.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Fork.Forked == 0 {
				b.Fatal("fork fast path did not engage")
			}
		}
		report(b)
	})
	b.Run("journaled", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			cfg := campaign.Config{Journal: filepath.Join(dir, fmt.Sprint(i))}
			if _, err := campaign.Run(context.Background(), target, spec, cfg); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("replay", func(b *testing.B) {
		cfg := campaign.Config{Journal: filepath.Join(b.TempDir(), "journal")}
		if _, err := campaign.Run(context.Background(), target, spec, cfg); err != nil {
			b.Fatal(err)
		}
		cfg.Resume = true
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := campaign.Run(context.Background(), target, spec, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.ShardsRun != 0 {
				b.Fatalf("replay executed %d shards", res.ShardsRun)
			}
		}
		report(b)
	})
}

func mustModule(b *testing.B, target propane.Target, name string) propane.ModuleInfo {
	b.Helper()
	mod, ok := propane.Module(target, name)
	if !ok {
		b.Fatalf("module %q not found", name)
	}
	return mod
}

func BenchmarkTables_ParallelRows(b *testing.B) {
	opts := benchOpts()
	ids := []string{"7Z-A1", "FG-B1", "MG-B1"}
	for i := 0; i < b.N; i++ {
		if _, err := core.Tables(context.Background(), ids, 3, false, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: learnt predicate vs the golden-range executable assertion
// (the specification-derived detector family of paper §II-A).
func BenchmarkAblation_RangeCheckEA(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		cmp, err := core.CompareWithRangeCheckEA(context.Background(), "MG-B1", 0.05, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.RangeCheck.AUC(), "EA-AUC")
		b.ReportMetric(cmp.Learned.AUC(), "learned-AUC")
	}
}

// BenchmarkTelemetryOverhead quantifies the cost of the telemetry layer
// around the hot tree-induction loop in its three states: no telemetry
// calls at all, the instrumented code path with telemetry disabled (the
// nil-registry fast path every library consumer pays), and a live
// registry. The disabled path is required to stay within 2% of the
// uninstrumented baseline; EXPERIMENTS.md records the measurements.
func BenchmarkTelemetryOverhead(b *testing.B) {
	d := benchDataset(b, "FG-A2")
	induce := func(b *testing.B) {
		if _, err := core.DefaultLearner().FitTree(d); err != nil {
			b.Fatal(err)
		}
	}
	// instrumented mirrors the pipeline's per-unit pattern: hoisted
	// metric handles, a span around the work, a histogram observation
	// and a counter increment per iteration.
	instrumented := func(b *testing.B, ctx context.Context) {
		reg := telemetry.FromContext(ctx)
		trees := reg.Counter("bench.trees_induced")
		fitNS := reg.Histogram("bench.fit_ns")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, span := telemetry.StartSpan(ctx, "fit")
			induce(b)
			fitNS.Observe(int64(span.End()))
			trees.Inc()
		}
	}
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			induce(b)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		telemetry.SetDefault(nil)
		instrumented(b, context.Background())
	})
	b.Run("enabled", func(b *testing.B) {
		reg := telemetry.New()
		instrumented(b, telemetry.WithRegistry(context.Background(), reg))
	})
}

// latencyTarget models an out-of-process target system: each run costs
// a fixed wall-clock wait (subprocess exec, IPC, device I/O) rather
// than CPU. Fabric scaling is measured against this class because
// adding workers overlaps waiting, not compute — the shape of the
// multi-machine deployment the fabric exists for, where every worker
// brings its own CPUs and the coordinator only merges lines.
type latencyTarget struct{ delay time.Duration }

func (latencyTarget) Name() string { return "LatencyFake" }

func (latencyTarget) Modules() []propane.ModuleInfo {
	return []propane.ModuleInfo{{
		Name: "M",
		Vars: []propane.VarDecl{
			{Name: "x", Kind: bitflip.Float64},
			{Name: "ok", Kind: bitflip.Bool},
		},
	}}
}

func (latencyTarget) TestCases(n int, seed uint64) []propane.TestCase {
	tcs := make([]propane.TestCase, n)
	for i := range tcs {
		tcs[i] = propane.TestCase{ID: i, Seed: seed + uint64(i)}
	}
	return tcs
}

func (l latencyTarget) Run(tc propane.TestCase, probe propane.Probe) (any, error) {
	time.Sleep(l.delay)
	x := float64(tc.ID) + 1
	ok := true
	vars := []propane.VarRef{
		propane.Float64Ref("x", &x),
		propane.BoolRef("ok", &ok),
	}
	probe.Visit("M", propane.Entry, vars)
	x *= 2
	probe.Visit("M", propane.Exit, vars)
	if !ok {
		panic("latencyTarget: guard corrupted")
	}
	return x, nil
}

func (latencyTarget) Failed(_ propane.TestCase, golden, observed any) bool {
	g, o := golden.(float64), observed.(float64)
	return g != o && !(math.IsNaN(g) && math.IsNaN(o))
}

// BenchmarkFabric measures distributed-campaign throughput with 1, 2
// and 4 in-process workers against a loopback coordinator, on a
// latency-bound synthetic target (1ms per run). Each iteration is a
// complete fabric campaign, but only the lease/execute/merge phase is
// timed — journal setup, golden preparation and coordinator drain are
// per-campaign fixed costs, not the steady state that scales with
// workers. The headline metric is runs/s; the workers=2 over workers=1
// ratio is the scaling acceptance figure (target >=1.8x on any
// machine, since sleeping runs overlap regardless of core count).
func BenchmarkFabric(b *testing.B) {
	target := latencyTarget{delay: time.Millisecond}
	spec := propane.Spec{
		Dataset:        "FAB-L1",
		Module:         "M",
		InjectAt:       propane.Entry,
		SampleAt:       propane.Exit,
		InjectionTimes: []int{1},
		TestCases:      4,
		Seed:           7,
		BitStride:      4,
		Workers:        8, // parallel golden prep; shard cells stay sequential
	}
	jobs := len(spec.Jobs(mustModule(b, target, spec.Module)))
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runFabricCampaign(b, target, spec, workers)
			}
			b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}

// runFabricCampaign drives one full coordinator + n-worker campaign
// over loopback HTTP, timing only the worker run phase up to the
// campaign's completion, and fails the benchmark on any error.
func runFabricCampaign(b *testing.B, target propane.Target, spec propane.Spec, workers int) {
	b.Helper()
	b.StopTimer()
	co, err := fabric.NewCoordinator(target, spec,
		campaign.Config{Journal: filepath.Join(b.TempDir(), "journal"), Shards: 8},
		fabric.CoordinatorConfig{
			LeaseTTL: 5 * time.Second,
			// An idle worker steals a straggler's shard, so a thief may
			// still be executing one when the last shard commits. Linger
			// covers a shard's execution (about 20 ms here), so the
			// thief's upload finds the coordinator and merges as a
			// duplicate. It is untimed, like the drain.
			Linger:   200 * time.Millisecond,
			Registry: telemetry.New(),
		})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.Serve(ctx, ln) }()

	ws := make([]*fabric.Worker, workers)
	for i := range ws {
		w, err := fabric.NewWorker(ctx, target, spec, campaign.Config{}, fabric.WorkerConfig{
			Coordinator: "http://" + ln.Addr().String(),
			Name:        fmt.Sprintf("bench-%d", i),
			Poll:        time.Millisecond,
			Registry:    telemetry.New(),
		})
		if err != nil {
			b.Fatal(err)
		}
		ws[i] = w
	}

	b.StartTimer()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	returned := make(chan struct{}, workers)
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *fabric.Worker) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
			returned <- struct{}{}
		}(i, w)
	}
	// A worker returns once it sees the campaign complete, so the first
	// return ends the timed phase; a thief finishing a duplicate of the
	// last shard is not campaign time.
	<-returned
	b.StopTimer()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := <-serveErr; err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
}
