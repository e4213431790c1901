package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"edem/bench/internal/report"
	"edem/internal/core"
	"edem/internal/dataset"
	"edem/internal/mining/eval"
	"edem/internal/mining/sampling"
	"edem/internal/parallel"
	"edem/internal/predicate"
	"edem/internal/propane"
	"edem/internal/serve"
	"edem/internal/stats"
)

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	datasets := fs.String("datasets", "", "comma-separated dataset IDs")
	scale := fs.Int("scale", 10, "test cases (edem -scale)")
	stride := fs.Int("stride", 2, "bit stride (edem -stride)")
	seed := fs.Uint64("seed", 1, "campaign seed (edem -seed)")
	fabricID := fs.String("fabric", "", "dataset whose campaign also runs through the fabric")
	epoch := fs.Int64("epoch", 0, "trace epoch, Unix nanoseconds")
	outDir := fs.String("out", "", "directory for the report and the artefacts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The options `edem run` and `edem export` build from their flags,
	// with the process-wide worker budget left at all cores.
	opts := core.DefaultOptions()
	opts.Seed, opts.TestCases, opts.BitStride, opts.Resume = *seed, *scale, *stride, true
	parallel.SetBudget(opts.Workers)

	ctx := context.Background()
	rec := newRecorder(*epoch)
	out := newOutput()
	bundle := &serve.Bundle{Version: serve.BundleVersion}
	var first *propane.Campaign
	for i, id := range strings.Split(*datasets, ",") {
		g, err := generate(ctx, rec, out, id, opts)
		if err != nil {
			return err
		}
		if i == 0 {
			first = g.campaign
			out.Metrics["generate.wall_s"] = g.wall.Seconds()
		}
		data, err := g.pred.MarshalText()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*outDir, "pred-"+id+".json"), data, 0o644); err != nil {
			return err
		}
		info, err := core.Info(id, opts)
		if err != nil {
			return err
		}
		bundle.Detectors = append(bundle.Detectors, serve.BundleEntry{
			ID: id, Module: info.Module, Location: info.SampleAt.String(), Predicate: g.pred,
		})
	}
	m := out.Metrics
	m["campaign.runs_per_s"] = m["campaign.runs"] / m["campaign.busy_s"]
	m["campaign.usable_ratio"] = m["campaign.usable"] / m["campaign.runs"]
	m["campaign.fork_ratio"] = m["campaign.forked"] / m["campaign.runs"]
	if err := bundle.WriteFile(filepath.Join(*outDir, "bundle.json")); err != nil {
		return err
	}
	err := writeFile(filepath.Join(*outDir, "states.log"), func(f *os.File) error { return propane.WriteLog(f, first) })
	if err != nil {
		return err
	}
	if *fabricID != "" {
		if err := runFabric(ctx, rec, out, *fabricID, opts, filepath.Join(*outDir, "journal")); err != nil {
			return err
		}
	}
	out.Spans = rec.snapshot()
	out.Metrics["generate.coverage"] = report.Coverage(out.Spans, "generate")
	return out.write(filepath.Join(*outDir, "trace.json"))
}

// generated is one dataset's pass through generation.
type generated struct {
	campaign *propane.Campaign
	pred     *predicate.Predicate
	wall     time.Duration
}

// generate runs Steps 1-4 and predicate extraction for one dataset with
// a span around each layer's entry point. The sequence is
// core.RunMethodology's, call for call, so the predicate must match
// the one `edem run` saves; the runner checks that it does.
func generate(ctx context.Context, rec *recorder, out *output, id string, opts core.Options) (*generated, error) {
	m := out.Metrics
	root := rec.begin("generate", id, 0)

	s := rec.begin("campaign", id, root)
	res, err := core.CampaignResult(ctx, id, opts)
	busy := rec.end(s)
	if err != nil {
		return nil, err
	}
	c := res.Campaign
	m["campaign.busy_s"] += busy.Seconds()
	m["campaign.runs"] += float64(len(c.Records))
	m["campaign.usable"] += float64(c.Usable())
	m["campaign.forked"] += float64(res.Fork.Forked)
	m["campaign.retries"] += float64(res.Retries)
	m["campaign.skipped"] += float64(len(res.Skipped))

	s = rec.begin("preprocess", id, root)
	d, err := core.Preprocess(ctx, c)
	m["preprocess.busy_s"] += rec.end(s).Seconds()
	if err != nil {
		return nil, err
	}
	m["preprocess.instances"] += float64(d.Len())

	s = rec.begin("baseline", id, root)
	_, err = core.Baseline(ctx, d, opts)
	m["baseline.busy_s"] += rec.end(s).Seconds()
	if err != nil {
		return nil, err
	}

	grid := core.RefineGrid(false)
	s = rec.begin("refine", id, root)
	refined, err := core.Refine(ctx, d, grid, opts)
	m["refine.busy_s"] += rec.end(s).Seconds()
	if err != nil {
		return nil, err
	}

	s = rec.begin("fit", id, root)
	final := d
	if tf := refined.Best.Transform(); tf != nil {
		final, err = tf(d, stats.NewRNG(opts.Seed^0xfeed))
	}
	var pred *predicate.Predicate
	if err == nil {
		t, ferr := core.DefaultLearner().FitTree(final)
		if err = ferr; err == nil {
			pred, err = predicate.FromTree(t, eval.PositiveClass, id)
		}
	}
	m["fit.busy_s"] += rec.end(s).Seconds()
	if err != nil {
		return nil, err
	}
	wall := rec.end(root)

	if err := replay(rec, out, id, d, grid, opts, refined); err != nil {
		return nil, err
	}
	return &generated{campaign: c, pred: pred, wall: wall}, nil
}

// cellResult is one replayed (configuration, fold) cell.
type cellResult struct {
	counts eval.BinaryCounts
	size   int
}

// replay re-runs core.Refine's cells one at a time, timing each kernel
// (training store, SMOTE neighbour index, sampling view, tree
// induction, scoring), and checks that the replay reproduces
// RefineResult.Evaluated bit for bit, so the kernel split describes
// the computation Refine actually did. Refine's cell schedule is
// parallel and lazy; serial replay times the same work without it.
func replay(rec *recorder, out *output, id string, d *dataset.Dataset, grid []core.SamplingConfig, opts core.Options, want *core.RefineResult) error {
	m := out.Metrics
	full := append([]core.SamplingConfig{{Kind: core.NoSampling}}, grid...)
	folds, err := dataset.StratifiedKFold(d, opts.Folds, stats.NewRNG(opts.Seed))
	if err != nil {
		return err
	}
	maxK := 0
	for _, cfg := range full {
		if cfg.Kind == core.Smote {
			maxK = max(maxK, cfg.K)
		}
	}
	root := rec.begin("replay", id, 0)
	defer rec.end(root)
	timed := func(name string, fn func() error) error {
		s := rec.begin(name, id, root)
		err := fn()
		m["refine."+name+"_s"] += rec.end(s).Seconds()
		return err
	}
	cells := make([]cellResult, len(folds)*len(full))
	for fi, fold := range folds {
		var st *dataset.Store
		_ = timed("store", func() error { st = dataset.NewStore(d, fold.Train); return nil })
		var ni *sampling.NeighborIndex
		if maxK > 0 {
			err := timed("index", func() (err error) {
				ni, err = sampling.BuildViewIndex(st, eval.PositiveClass, maxK)
				return err
			})
			if err != nil {
				return err
			}
		}
		for ci, cfg := range full {
			rng := stats.NewRNG(opts.Seed ^ (uint64(fi+1) << 20) ^ uint64(ci+1))
			var v *dataset.View
			err := timed("view", func() (err error) {
				switch cfg.Kind {
				case core.Undersampling:
					v, err = sampling.UndersampleView(st, 0, cfg.Percent, rng)
				case core.Oversampling:
					if ni != nil {
						v, err = ni.OversampleView(cfg.Percent, rng)
					} else {
						v, err = sampling.OversampleView(st, eval.PositiveClass, cfg.Percent, rng)
					}
				case core.Smote:
					v, err = ni.SMOTEView(cfg.Percent, cfg.K, rng)
				default:
					v = st.IdentityView()
				}
				return err
			})
			if err != nil {
				return err
			}
			if cfg.Kind == core.Smote {
				m["refine.synthetic_rows"] += float64(v.Appended())
			}
			cell := &cells[fi*len(full)+ci]
			var model interface {
				Classify([]float64) int
				Size() int
			}
			err = timed("induce", func() error {
				t, err := core.DefaultLearner().FitTreeView(v)
				model = t
				return err
			})
			if err != nil {
				return err
			}
			err = timed("score", func() error {
				cm := eval.NewConfusionMatrix(d.ClassValues)
				for _, ti := range fold.Test {
					in := &d.Instances[ti]
					if err := cm.Record(in.Class, model.Classify(in.Values), in.Weight); err != nil {
						return err
					}
				}
				cell.counts = cm.Binary(eval.PositiveClass)
				cell.size = model.Size()
				return nil
			})
			if err != nil {
				return err
			}
			m["refine.cells"]++
		}
	}
	if len(want.Evaluated) != len(full) {
		out.errorf("%s: replay: Refine evaluated %d configurations, replay %d", id, len(want.Evaluated), len(full))
		return nil
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for ci := range full {
		var auc, tpr, fpr, comp stats.Welford
		for fi := range folds {
			c := &cells[fi*len(full)+ci]
			auc.Add(c.counts.AUC())
			tpr.Add(c.counts.TPR())
			fpr.Add(c.counts.FPR())
			comp.Add(float64(c.size))
		}
		cv := want.Evaluated[ci].CV
		if !same(auc.Mean(), cv.MeanAUC) || !same(tpr.Mean(), cv.MeanTPR) || !same(fpr.Mean(), cv.MeanFPR) ||
			!same(comp.Mean(), cv.MeanComp) || !same(auc.Variance(), cv.VarAUC) {
			out.errorf("%s: replay of %s differs from Refine: AUC %v/%v TPR %v/%v FPR %v/%v nodes %v/%v",
				id, full[ci].Label(), auc.Mean(), cv.MeanAUC, tpr.Mean(), cv.MeanTPR, fpr.Mean(), cv.MeanFPR, comp.Mean(), cv.MeanComp)
		}
	}
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
