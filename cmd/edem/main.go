// Command edem drives the methodology from the command line:
//
//	edem tables -table 1|2|3|4      regenerate Table I, or Tables II through N
//	edem run -dataset FG-A2         run Steps 1-4 on one dataset
//	edem tree -dataset FG-A2        print the induced tree (Figure 2)
//	edem inject -dataset 7Z-B1      run Step 1 and dump PROPANE log/ARFF
//	edem validate -dataset MG-B1    deploy the predicate and re-inject
//	edem list                       list the Table II dataset IDs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"edem/internal/campaign"
	"edem/internal/core"
	"edem/internal/dataset"
	"edem/internal/durable"
	"edem/internal/fabric"
	"edem/internal/lifecycle"
	"edem/internal/mining/eval"
	"edem/internal/parallel"
	"edem/internal/predicate"
	"edem/internal/propane"
	"edem/internal/serve"
	"edem/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edem:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "campaign":
		return cmdCampaign(rest)
	case "fabric":
		return cmdFabric(rest)
	case "tables":
		return cmdTables(rest)
	case "run":
		return cmdRun(rest)
	case "tree":
		return cmdTree(rest)
	case "inject":
		return cmdInject(rest)
	case "validate":
		return cmdValidate(rest)
	case "export":
		return cmdExport(rest)
	case "serve":
		return cmdServe(rest)
	case "lifecycle":
		return cmdLifecycle(rest)
	case "bench-serve":
		return cmdBenchServe(rest)
	case "list":
		return cmdList()
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func usage() { fmt.Fprint(os.Stderr, usageText) }

const usageText = `usage: edem <command> [flags]

commands:
  campaign  -dataset ID|-all -journal DIR [-resume]       run a resumable fault-injection campaign
            [-shards N] [-timeout D] [-max-retries N] [-stop-after N]
            [-stats]  per-variable summary + fork fast-path counts and fallbacks
            [-incremental]  after a spec change, re-run only invalidated shards
  fabric    serve -dataset ID -journal DIR [-addr H:P]    coordinate a distributed campaign
            [-resume] [-incremental] [-lease-ttl D] [-linger D]
            [-auth-token T] [-tls-cert F -tls-key F]  bearer auth (all but /healthz) + TLS
            work  -dataset ID -coordinator URL [-name N]  execute leased shards for a coordinator
            [-auth-token T]
  tables    -table 1|2|3|4 [-full] [-scale N] [-stride N] print Table I, or Tables II through N from one pass
  run       -dataset ID [-full]                           run Steps 1-4 on one dataset
  tree      -dataset ID                                   print the induced tree (Figure 2)
  inject    -dataset ID [-log F] [-arff F]                run Step 1, dump PROPANE log / ARFF
  validate  -dataset ID [-full] [-pred FILE]              deploy a detector, re-validate it and trace its latency
  export    -dataset ID[,ID...]|-all -out FILE [-full]    learn predicates and write a detector bundle
  serve     -bundle FILE [-addr HOST:PORT] [-queue N]     serve detector evaluations over HTTP/JSON
            [-deadline D] [-drain D] [-policy fail-open|fail-closed]
            [-breaker-threshold N] [-breaker-cooldown D] [-allow-delay]
            [-lifecycle DIR]  enable feedback/drift/shadow/canary (journals under DIR)
            [-shadow FILE] [-canary N] [-canary-min-requests N]
            [-canary-max-disagree F] [-canary-max-alarm-regress F] [-drift-threshold F]
  lifecycle status|shadow|promote|rollback|baseline|feedback   drive a running serve instance
            [-server URL] status: drift + canary view      shadow: -bundle FILE
            promote: [-percent N]   rollback: [-reason S]  feedback: -detector ID -outcome L
  bench-serve -bundle FILE [-out FILE] [-duration D]      measure serving throughput/latency per codec
            [-conns N] [-batch N] [-detector ID] [-shadow] and evaluation mode, write BENCH_serve.json
  list                                                    list Table II dataset IDs

common flags (all commands): -seed N -scale N -stride N -workers N -journal DIR
fault model:  -fault-model transient|burst|stuckat|intermittent
              -burst-width N (burst)   -persist N (intermittent)
              non-transient models version the plan hash; transient stays byte-identical
telemetry:  -metrics-out FILE   write a JSON metrics snapshot on exit
            -trace              print the phase span tree to stderr
            -debug-addr ADDR    serve pprof + /metrics (e.g. localhost:6060)

With -journal DIR, every command that builds fault-injection datasets
(tables, run, tree, inject, validate) checkpoints campaigns to
DIR/<dataset-id> and resumes whatever is already there, so a completed
"edem campaign" journal makes Tables II-IV a pure replay.
"edem campaign" itself refuses an existing journal without -resume.
`

func commonOpts(fs *flag.FlagSet) (*core.Options, *telemetryCfg) {
	opts := core.DefaultOptions()
	fs.Uint64Var(&opts.Seed, "seed", opts.Seed, "experiment seed")
	fs.IntVar(&opts.TestCases, "scale", opts.TestCases, "test cases for 7Z/MG campaigns")
	fs.IntVar(&opts.BitStride, "stride", opts.BitStride, "bit sampling stride (1 = every bit, the paper's setting)")
	fs.IntVar(&opts.Workers, "workers", 0, "global worker budget shared across all nesting levels (0 = all cores)")
	fs.StringVar(&opts.Journal, "journal", "", "campaign checkpoint root (one journal per dataset under DIR)")
	// The fault-model axis. The default (transient, width 1, persist 1)
	// reproduces today's campaigns byte-for-byte: same plan hash, same
	// journal, same ARFF.
	fs.Var(&opts.Fault.Model, "fault-model", "fault model: transient (single bit-flip), burst (adjacent multi-bit), stuckat (re-asserted until run end), intermittent (re-asserted for -persist activations)")
	fs.IntVar(&opts.Fault.Width, "burst-width", 0, "adjacent bits flipped per injection with -fault-model burst (default 1)")
	fs.IntVar(&opts.Fault.Persist, "persist", 0, "activations an intermittent fault stays asserted with -fault-model intermittent (default 1)")
	// Dataset consumers resume implicitly: a half-finished journal is
	// completed, a finished one is replayed without target runs. Only
	// `edem campaign` demands the explicit -resume acknowledgement.
	opts.Resume = true
	tel := &telemetryCfg{}
	fs.StringVar(&tel.metricsOut, "metrics-out", "", "write a JSON telemetry snapshot to this file on exit")
	fs.BoolVar(&tel.trace, "trace", false, "print the phase span tree to stderr on exit")
	fs.StringVar(&tel.debugAddr, "debug-addr", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	return &opts, tel
}

// parseArgs parses the subcommand flags, installs the -workers value
// as the process-wide scheduler budget (so nested parallel sections —
// dataset rows → CV folds → campaign runs — share one pool instead of
// oversubscribing each other; results never depend on the budget), and
// starts telemetry collection when any observability flag asks for it.
// Callers must `defer tel.finish()` after a successful parse.
func parseArgs(fs *flag.FlagSet, args []string, opts *core.Options, tel *telemetryCfg) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	parallel.SetBudget(opts.Workers)
	return tel.start()
}

// telemetryCfg carries the cross-cutting observability flags shared by
// every subcommand and owns the registry lifecycle: created in start(),
// reported and uninstalled in finish().
type telemetryCfg struct {
	metricsOut string
	trace      bool
	debugAddr  string
	reg        *telemetry.Registry
	debugSrv   *http.Server
}

func (t *telemetryCfg) start() error {
	if t.metricsOut == "" && !t.trace && t.debugAddr == "" {
		telemetry.SetDefault(nil)
		return nil
	}
	// Listen before installing the registry: a refused address returns
	// without the deferred finish, which would otherwise leave the
	// registry installed for whatever runs next in the process.
	var ln net.Listener
	if t.debugAddr != "" {
		var err error
		if ln, err = net.Listen("tcp", t.debugAddr); err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
	}
	t.reg = telemetry.New()
	telemetry.SetDefault(t.reg)
	if ln != nil {
		// Dedicated mux: the DefaultServeMux is process-global mutable
		// state that any imported package can extend, which is exactly
		// what a diagnostic port must not expose. The generous write
		// timeout accommodates /debug/pprof/profile?seconds=N streams.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/metrics", t.reg)
		t.debugSrv = &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      5 * time.Minute,
			IdleTimeout:       time.Minute,
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ (metrics at /metrics)\n", ln.Addr())
		go func() { _ = t.debugSrv.Serve(ln) }()
	}
	return nil
}

// serviceRegistry returns the registry of a long-running service,
// whose /metrics endpoint is part of its API: the -metrics-out, -trace
// or -debug-addr registry when there is one, else a fresh one.
func (t *telemetryCfg) serviceRegistry() *telemetry.Registry {
	if t.reg != nil {
		return t.reg
	}
	return telemetry.New()
}

// finish reports the collected telemetry (span tree on stderr, JSON
// snapshot to -metrics-out) and uninstalls the registry.
func (t *telemetryCfg) finish() {
	if t.debugSrv != nil {
		// The deferred finish runs when the subcommand returns — which
		// includes returning because the main signal context was
		// cancelled — so the debug listener never outlives the command.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = t.debugSrv.Shutdown(ctx)
		cancel()
		t.debugSrv = nil
	}
	if t.reg == nil {
		return
	}
	snap := t.reg.Snapshot()
	if t.trace {
		fmt.Fprint(os.Stderr, snap.FormatTree())
	}
	if t.metricsOut != "" {
		err := durable.WriteFile(t.metricsOut, snap.WriteJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "edem: metrics snapshot:", err)
		} else {
			fmt.Fprintln(os.Stderr, "wrote metrics:", t.metricsOut)
		}
	}
	telemetry.SetDefault(nil)
	t.reg = nil
}

// cmdCampaign drives the resumable campaign engine directly: it runs
// (or resumes) the Step 1 fault-injection sweep for one dataset or all
// 18, checkpointing each shard to the journal. A run killed at any
// point — or stopped deliberately with -stop-after — picks up from its
// last checkpoint under -resume and yields a bit-identical dataset.
func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	id := fs.String("dataset", "", "Table II dataset ID (empty with -all sweeps all 18)")
	all := fs.Bool("all", false, "run every Table II dataset")
	resume := fs.Bool("resume", false, "continue an existing journal instead of refusing it")
	incremental := fs.Bool("incremental", false, "with -resume: after a spec/target change, keep shards whose test-case sections are unchanged and re-run only the invalidated ones")
	stopAfter := fs.Int("stop-after", 0, "stop gracefully after N new checkpoints (0 = run to completion); the journal stays resumable")
	showStats := fs.Bool("stats", false, "print the per-variable failure summary and the fork fast path's counts (forked, converged, memoized, fallbacks)")
	opts, tel := commonOpts(fs)
	fs.IntVar(&opts.Shards, "shards", 0, "checkpoint shard count (0 = ~256 runs per shard)")
	fs.DurationVar(&opts.RunTimeout, "timeout", 0, "per-run watchdog; hung runs are retried then skipped (0 = none)")
	fs.IntVar(&opts.MaxRetries, "max-retries", 2, "extra attempts for a hung or crashed-engine run before skipping the cell")
	if err := parseArgs(fs, args, opts, tel); err != nil {
		return err
	}
	defer tel.finish()
	opts.Resume = *resume
	opts.Incremental = *incremental
	if *incremental && !*resume {
		return fmt.Errorf("-incremental requires -resume (it relaxes the resume plan check)")
	}
	ids := []string{*id}
	switch {
	case *all && *id != "":
		return fmt.Errorf("use either -dataset or -all, not both")
	case *all:
		ids = core.AllDatasetIDs()
	case *id == "":
		return fmt.Errorf("campaign needs -dataset ID or -all")
	}

	// SIGTERM/SIGINT cancel the campaign context: the engine stops
	// claiming shards, finishes none mid-write (a cancelled cell drops
	// its whole shard before the checkpoint append), and the journal
	// stays resumable — a kill is just an unplanned -stop-after.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	for _, dsID := range ids {
		if err := runOneCampaign(ctx, dsID, opts, *stopAfter, *showStats); err != nil {
			return err
		}
		if ctx.Err() != nil {
			return nil
		}
	}
	return nil
}

// runOneCampaign executes one dataset's campaign and reports resume
// accounting, skipped cells and (optionally) per-variable stats. A
// -stop-after interruption or a kill signal is a success: the point of
// the engine is that stopping is safe.
func runOneCampaign(parent context.Context, id string, opts *core.Options, stopAfter int, showStats bool) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	stopped := false
	newCheckpoints := 0
	o := *opts
	// The progress hook is also the -stop-after trigger: it only fires
	// for newly executed shards, so restored checkpoints never count
	// against the stop budget.
	progress := func(done, total int) {
		fmt.Fprintf(os.Stderr, "  %s: checkpoint %d/%d\n", id, done, total)
		newCheckpoints++
		if stopAfter > 0 && newCheckpoints >= stopAfter && !stopped {
			stopped = true
			cancel()
		}
	}
	target, spec, err := core.SpecFor(id, o)
	if err != nil {
		return err
	}
	cfg := o.CampaignConfig(id)
	cfg.OnCheckpoint = progress
	res, err := campaign.Run(ctx, target, spec, cfg)
	if err != nil {
		if stopped && errors.Is(err, context.Canceled) {
			fmt.Printf("campaign %s: stopped after %d new checkpoints; resume with:\n  edem campaign -dataset %s -journal %s -resume\n",
				id, newCheckpoints, id, o.Journal)
			return nil
		}
		if parent.Err() != nil && errors.Is(err, context.Canceled) {
			fmt.Printf("campaign %s: interrupted by signal after %d new checkpoints; journal is consistent, resume with:\n  edem campaign -dataset %s -journal %s -resume\n",
				id, newCheckpoints, id, o.Journal)
			return nil
		}
		return err
	}
	c := res.Campaign
	fmt.Printf("campaign %s: plan %.12s, %d/%d shards run (%d restored), %d retries\n",
		id, res.PlanHash, res.ShardsRun, res.Shards, res.ShardsRestored, res.Retries)
	if f := spec.Fault.Normalized(); showStats || !f.IsTransient() {
		fmt.Printf("  fault model: %s (width %d, persist %d)\n", f.Model, f.Width, f.Persist)
	}
	if res.TornTails > 0 {
		fmt.Printf("  resume skipped %d torn checkpoint line(s)\n", res.TornTails)
	}
	if res.ShardsInvalidated > 0 || res.ShardsReused > 0 {
		fmt.Printf("  incremental: %d shard(s) invalidated, %d reused\n",
			res.ShardsInvalidated, res.ShardsReused)
	}
	fmt.Printf("  %d injected runs, %d usable, %d failures\n",
		len(c.Records), c.Usable(), c.Failures())
	if f := res.Fork; showStats && (f.Forked > 0 || f.Fallbacks > 0) {
		fmt.Printf("  fork fast path: %d snapshots, %d forked (%d converged, %d memoized), %d fallbacks\n",
			f.Snapshots, f.Forked, f.Converged, f.MemoHits, f.Fallbacks)
	}
	if len(res.Skipped) > 0 {
		fmt.Printf("  %d cells skipped:\n", len(res.Skipped))
		for _, s := range res.Skipped {
			fmt.Printf("    job %d (tc %d, %s, bit %d, t %d): %s (%d attempts)\n",
				s.Job, s.TC, s.Var, s.Bit, s.Time, s.Reason, s.Attempts)
		}
	}
	if showStats {
		fmt.Print(propane.FormatStats(propane.Summarize(c)))
	}
	return nil
}

// cmdFabric dispatches the distributed-campaign verbs: `fabric serve`
// runs the coordinator that owns the plan and journal, `fabric work`
// runs a worker that leases and executes shards. A fabric journal is an
// ordinary campaign journal: `edem campaign -resume` replays it and
// sealing makes it byte-identical to a local run's.
func cmdFabric(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("fabric needs a mode: serve (coordinator) or work (worker)")
	}
	mode, rest := args[0], args[1:]
	switch mode {
	case "serve":
		return cmdFabricServe(rest)
	case "work":
		return cmdFabricWork(rest)
	default:
		return fmt.Errorf("unknown fabric mode %q (want serve or work)", mode)
	}
}

func cmdFabricServe(args []string) error {
	fs := flag.NewFlagSet("fabric serve", flag.ContinueOnError)
	id := fs.String("dataset", "", "Table II dataset ID")
	addr := fs.String("addr", "127.0.0.1:9090", "coordinator listen address")
	resume := fs.Bool("resume", false, "continue an existing journal instead of refusing it")
	incremental := fs.Bool("incremental", false, "with -resume: re-run only shards invalidated by a spec/target change")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "shard lease lifetime without a heartbeat")
	linger := fs.Duration("linger", time.Second, "how long to keep serving after completion so idle workers see it")
	authToken := fs.String("auth-token", "", "require this bearer token on every call but /healthz (empty = no auth)")
	tlsCert := fs.String("tls-cert", "", "serve TLS with this PEM certificate (requires -tls-key)")
	tlsKey := fs.String("tls-key", "", "PEM private key for -tls-cert")
	opts, tel := commonOpts(fs)
	fs.IntVar(&opts.Shards, "shards", 0, "checkpoint shard count (0 = ~256 runs per shard)")
	if err := parseArgs(fs, args, opts, tel); err != nil {
		return err
	}
	defer tel.finish()
	opts.Resume = *resume
	opts.Incremental = *incremental
	if *incremental && !*resume {
		return fmt.Errorf("-incremental requires -resume")
	}
	if *id == "" {
		return fmt.Errorf("fabric serve needs -dataset ID")
	}
	if opts.Journal == "" {
		return fmt.Errorf("fabric serve needs -journal DIR (the coordinator owns the journal)")
	}
	target, spec, err := core.SpecFor(*id, *opts)
	if err != nil {
		return err
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		return fmt.Errorf("fabric serve needs both -tls-cert and -tls-key (or neither)")
	}
	co, err := fabric.NewCoordinator(target, spec, opts.CampaignConfig(*id), fabric.CoordinatorConfig{
		LeaseTTL:  *leaseTTL,
		Linger:    *linger,
		Registry:  tel.serviceRegistry(),
		Logf:      stderrLogf,
		AuthToken: *authToken,
		TLSCert:   *tlsCert,
		TLSKey:    *tlsKey,
	})
	if err != nil {
		return err
	}
	st := co.Status()
	fmt.Printf("fabric serve %s: plan %.12s, %d jobs in %d shards (%d already done)\n",
		*id, st.Plan, st.Jobs, st.Shards, st.Done)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	err = co.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Printf("fabric: coordinator listening on %s\n", a)
	})
	if err != nil {
		return err
	}
	final := co.Status()
	if final.Complete {
		fmt.Printf("fabric serve %s: complete, journal sealed (%d/%d shards); replay with:\n  edem campaign -dataset %s -journal %s -resume\n",
			*id, final.Done, final.Shards, *id, opts.Journal)
	} else {
		fmt.Printf("fabric serve %s: stopped at %d/%d shards; journal is resumable\n",
			*id, final.Done, final.Shards)
	}
	return nil
}

func cmdFabricWork(args []string) error {
	fs := flag.NewFlagSet("fabric work", flag.ContinueOnError)
	id := fs.String("dataset", "", "Table II dataset ID (must match the coordinator's)")
	coordinator := fs.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:9090")
	name := fs.String("name", "", "worker name in leases and logs (default worker-<pid>)")
	poll := fs.Duration("poll", 200*time.Millisecond, "idle wait between lease attempts")
	authToken := fs.String("auth-token", "", "bearer token for a coordinator started with -auth-token")
	opts, tel := commonOpts(fs)
	fs.DurationVar(&opts.RunTimeout, "timeout", 0, "per-run watchdog; hung runs are retried then skipped (0 = none)")
	fs.IntVar(&opts.MaxRetries, "max-retries", 2, "extra attempts for a hung or crashed-engine run before skipping the cell")
	if err := parseArgs(fs, args, opts, tel); err != nil {
		return err
	}
	defer tel.finish()
	if *id == "" {
		return fmt.Errorf("fabric work needs -dataset ID")
	}
	if *coordinator == "" {
		return fmt.Errorf("fabric work needs -coordinator URL")
	}
	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	// Workers never touch a journal: checkpoint lines stream to the
	// coordinator, which owns the only journal directory.
	opts.Journal = ""
	target, spec, err := core.SpecFor(*id, *opts)
	if err != nil {
		return err
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	w, err := fabric.NewWorker(ctx, target, spec, opts.CampaignConfig(*id), fabric.WorkerConfig{
		Coordinator: *coordinator,
		Name:        *name,
		Poll:        *poll,
		Logf:        stderrLogf,
		AuthToken:   *authToken,
	})
	if err != nil {
		return err
	}
	fmt.Printf("fabric work %s: %s executing for %s\n", *id, *name, *coordinator)
	if err := w.Run(ctx); err != nil {
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			fmt.Printf("fabric work %s: interrupted; leased shards will expire and re-lease\n", *id)
			return nil
		}
		return err
	}
	fmt.Printf("fabric work %s: campaign complete\n", *id)
	return nil
}

func stderrLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func cmdTables(args []string) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	table := fs.Int("table", 3, "table number: 1, or 2, 3, 4 to print Tables II through it")
	full := fs.Bool("full", false, "use the paper-scale refinement grid (table 4)")
	opts, tel := commonOpts(fs)
	if err := parseArgs(fs, args, opts, tel); err != nil {
		return err
	}
	defer tel.finish()
	ctx := context.Background()
	switch *table {
	case 1:
		fmt.Println("Table I: confusion matrix structure")
		cm := eval.NewConfusionMatrix([]string{"Pos.", "Neg."})
		fmt.Print(cm.String())
		fmt.Println("TP/FN/FP/TN cells; see internal/mining/eval.")
		return nil
	case 2, 3, 4:
		rows, err := core.Tables(ctx, core.AllDatasetIDs(), *table, *full, *opts, tableProgress)
		if err != nil {
			return err
		}
		fmt.Print(core.FormatTables(rows, *table))
		return nil
	default:
		return fmt.Errorf("unknown table %d", *table)
	}
}

// tableProgress is the stderr progress line for table generation: one
// line per finished dataset. Per-phase cost attribution comes from the
// telemetry layer (-trace / -metrics-out).
func tableProgress(id string) {
	fmt.Fprintf(os.Stderr, "  %s done\n", id)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	id := fs.String("dataset", "FG-A2", "Table II dataset ID")
	full := fs.Bool("full", false, "use the paper-scale refinement grid")
	save := fs.String("save", "", "write the learnt predicate (JSON) to this file")
	report := fs.String("report", "", "write a markdown generation report to this file")
	opts, tel := commonOpts(fs)
	if err := parseArgs(fs, args, opts, tel); err != nil {
		return err
	}
	defer tel.finish()
	rep, err := core.RunMethodology(context.Background(), *id, core.RefineGrid(*full), *opts)
	if err != nil {
		return err
	}
	printReport(rep)
	err = writeOutput(*save, "predicate", func(w io.Writer) error {
		data, err := rep.Predicate.MarshalText()
		if err == nil {
			_, err = w.Write(data)
		}
		return err
	})
	if err != nil {
		return err
	}
	return writeOutput(*report, "report", func(w io.Writer) error { return core.WriteReport(w, rep) })
}

// writeOutput replaces the file at path with what write produces
// (durable.WriteFile, so a failure leaves any previous file whole) and
// prints "wrote <what>: <path>". An empty path writes nothing.
func writeOutput(path, what string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if err := durable.WriteFile(path, write); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", what, path)
	return nil
}

func printReport(rep *core.Report) {
	fmt.Printf("dataset %s: %d instances, %d failure-inducing\n", rep.ID, rep.Instances, rep.Failures)
	b := rep.Baseline
	fmt.Printf("baseline:  FPR=%.2e TPR=%.4f AUC=%.4f Comp=%.1f Var=%.2e\n",
		b.MeanFPR, b.MeanTPR, b.MeanAUC, b.MeanComp, b.VarAUC)
	r := rep.Refined.BestCV
	fmt.Printf("refined:   FPR=%.2e TPR=%.4f AUC=%.4f Comp=%.1f Var=%.2e  (S=%s N=%s)\n",
		r.MeanFPR, r.MeanTPR, r.MeanAUC, r.MeanComp, r.VarAUC,
		rep.Refined.Best.Label(), rep.Refined.Best.KLabel())
	fmt.Printf("\ndetector predicate (%d clauses, %d atoms):\n%s\n",
		len(rep.Predicate.Clauses), rep.Predicate.Complexity(), rep.Predicate)
}

func cmdTree(args []string) error {
	fs := flag.NewFlagSet("tree", flag.ContinueOnError)
	id := fs.String("dataset", "FG-A2", "Table II dataset ID")
	opts, tel := commonOpts(fs)
	if err := parseArgs(fs, args, opts, tel); err != nil {
		return err
	}
	defer tel.finish()
	ctx := context.Background()
	d, _, err := core.BuildDataset(ctx, *id, *opts)
	if err != nil {
		return err
	}
	t, err := core.DefaultLearner().FitTree(d)
	if err != nil {
		return err
	}
	fmt.Printf("decision tree for %s (%d nodes, %d leaves, depth %d):\n",
		*id, t.Size(), t.Leaves(), t.Depth())
	fmt.Println(t.String())
	fmt.Println("variable importance (split-weight attribution):")
	fmt.Print(t.FormatImportance())
	return nil
}

func cmdInject(args []string) error {
	fs := flag.NewFlagSet("inject", flag.ContinueOnError)
	id := fs.String("dataset", "7Z-B1", "Table II dataset ID")
	logPath := fs.String("log", "", "write the PROPANE log to this file")
	arffPath := fs.String("arff", "", "write the ARFF dataset to this file")
	csvPath := fs.String("csv", "", "write the dataset as CSV to this file")
	showStats := fs.Bool("stats", false, "print the per-variable failure summary")
	opts, tel := commonOpts(fs)
	if err := parseArgs(fs, args, opts, tel); err != nil {
		return err
	}
	defer tel.finish()
	ctx := context.Background()
	// CampaignResult (not Campaign) keeps the engine accounting, so the
	// plan hash and shard counts print even when the journal restored
	// everything and nothing ran.
	res, err := core.CampaignResult(ctx, *id, *opts)
	if err != nil {
		return err
	}
	camp := res.Campaign
	fmt.Printf("campaign %s: %d injected runs, %d usable, %d failures\n",
		*id, len(camp.Records), camp.Usable(), camp.Failures())
	if *showStats {
		fmt.Printf("  plan %.12s: %d shards, %d run, %d restored\n",
			res.PlanHash, res.Shards, res.ShardsRun, res.ShardsRestored)
		fmt.Print(propane.FormatStats(propane.Summarize(camp)))
	}
	if err := writeOutput(*logPath, "PROPANE log", func(w io.Writer) error { return propane.WriteLog(w, camp) }); err != nil {
		return err
	}
	if *arffPath == "" && *csvPath == "" {
		return nil
	}
	d, err := core.Preprocess(ctx, camp)
	if err != nil {
		return err
	}
	if err := writeOutput(*arffPath, "ARFF dataset", func(w io.Writer) error { return dataset.WriteARFF(w, d) }); err != nil {
		return err
	}
	return writeOutput(*csvPath, "CSV dataset", func(w io.Writer) error { return dataset.WriteCSV(w, d) })
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	id := fs.String("dataset", "MG-B1", "Table II dataset ID")
	full := fs.Bool("full", false, "use the paper-scale refinement grid")
	predPath := fs.String("pred", "", "validate this saved predicate instead of learning one")
	opts, tel := commonOpts(fs)
	if err := parseArgs(fs, args, opts, tel); err != nil {
		return err
	}
	defer tel.finish()
	ctx := context.Background()
	var pred *predicate.Predicate
	var cvTPR, cvFPR float64
	if *predPath != "" {
		data, err := os.ReadFile(*predPath)
		if err != nil {
			return err
		}
		pred, err = predicate.Parse(data)
		if err != nil {
			return err
		}
		fmt.Printf("loaded predicate %s (%d clauses)\n", pred.Name, len(pred.Clauses))
	} else {
		rep, err := core.RunMethodology(ctx, *id, core.RefineGrid(*full), *opts)
		if err != nil {
			return err
		}
		printReport(rep)
		pred = rep.Predicate
		cvTPR, cvFPR = rep.Refined.BestCV.MeanTPR, rep.Refined.BestCV.MeanFPR
	}
	c, err := core.Confirm(ctx, *id, pred, *opts)
	if err != nil {
		return err
	}
	fmt.Printf("re-validation across %d repeated injected runs:\n", c.Runs)
	if *predPath != "" {
		fmt.Printf("  deployed TPR=%.4f FPR=%.2e\n", c.Counts.TPR(), c.Counts.FPR())
	} else {
		fmt.Printf("  deployed TPR=%.4f FPR=%.2e  (CV estimates: TPR=%.4f FPR=%.2e)\n",
			c.Counts.TPR(), c.Counts.FPR(), cvTPR, cvFPR)
	}
	fmt.Printf("latency for %s: %d failures traced\n", *id, c.Failures)
	detected := 0.0
	if c.Failures > 0 {
		detected = 100 * float64(c.Detected) / float64(c.Failures)
	}
	fmt.Printf("  detected %d (%.1f%%), missed %d\n", c.Detected, detected, c.Missed)
	fmt.Printf("  mean detection latency %.2f activations (max %d, %.1f%% immediate)\n",
		c.MeanLatency, c.MaxLatency, 100*c.ImmediateRate)
	return nil
}

// cmdExport runs the methodology for one or more datasets and writes
// the learnt predicates — each tagged with its guarded module and
// sampling location — as a detector bundle, the deployable artefact
// `edem serve` loads.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	ids := fs.String("dataset", "", "comma-separated Table II dataset IDs")
	all := fs.Bool("all", false, "export every Table II dataset")
	out := fs.String("out", "bundle.json", "bundle output file")
	full := fs.Bool("full", false, "use the paper-scale refinement grid")
	opts, tel := commonOpts(fs)
	if err := parseArgs(fs, args, opts, tel); err != nil {
		return err
	}
	defer tel.finish()
	var list []string
	switch {
	case *all && *ids != "":
		return fmt.Errorf("use either -dataset or -all, not both")
	case *all:
		list = core.AllDatasetIDs()
	case *ids == "":
		return fmt.Errorf("export needs -dataset ID[,ID...] or -all")
	default:
		for _, id := range strings.Split(*ids, ",") {
			if id = strings.TrimSpace(id); id != "" {
				list = append(list, id)
			}
		}
	}
	// Every id resolves, once, before the first campaign runs.
	infos := make([]core.DatasetInfo, len(list))
	for i, id := range list {
		var err error
		if infos[i], err = core.Info(id, *opts); err != nil {
			return err
		}
		if slices.Contains(list[:i], id) {
			return fmt.Errorf("export: dataset %s listed twice", id)
		}
	}
	ctx := context.Background()
	bundle := &serve.Bundle{Version: serve.BundleVersion}
	for i, id := range list {
		info := infos[i]
		rep, err := core.RunMethodology(ctx, id, core.RefineGrid(*full), *opts)
		if err != nil {
			return err
		}
		bundle.Detectors = append(bundle.Detectors, serve.BundleEntry{
			ID:        id,
			Module:    info.Module,
			Location:  info.SampleAt.String(),
			Predicate: rep.Predicate,
		})
		fmt.Fprintf(os.Stderr, "  %s: %d clauses, %d atoms (guards %s/%s)\n",
			id, len(rep.Predicate.Clauses), rep.Predicate.Complexity(), info.Module, info.SampleAt)
	}
	if err := bundle.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote bundle: %s (%d detectors)\n", *out, len(bundle.Detectors))
	return nil
}

// cmdServe runs the online detector-serving runtime: it loads a
// bundle, serves POST /v1/evaluate with admission control and
// per-detector circuit breaking, reloads the bundle on SIGHUP or
// POST /admin/reload, and drains cleanly on SIGTERM/SIGINT.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	bundlePath := fs.String("bundle", "", "detector bundle file (from edem export)")
	addr := fs.String("addr", "localhost:8080", "listen address")
	queue := fs.Int("queue", 64, "admission headroom beyond -workers: at most workers+N requests evaluate at once, further ones shed with 429")
	deadline := fs.Duration("deadline", 2*time.Second, "default per-request evaluation deadline")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown budget for in-flight requests")
	policy := fs.String("policy", "fail-closed", "degradation policy when a detector cannot evaluate: fail-open or fail-closed")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive evaluation failures that trip a detector's circuit")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "open-circuit cooldown before half-open probing")
	allowDelay := fs.Bool("allow-delay", false, "honour delay_ms in requests (synthetic latency for load testing)")
	lifecycleDir := fs.String("lifecycle", "", "lifecycle journal directory; enables feedback, drift tracking, shadow evaluation and canary promotion")
	shadowPath := fs.String("shadow", "", "candidate bundle to shadow-evaluate from startup (requires -lifecycle)")
	canaryPct := fs.Int("canary", 0, "route N%% of candidate-answerable traffic to the -shadow candidate from startup (1-99)")
	canaryMin := fs.Int64("canary-min-requests", 50, "dual-evaluated requests before the canary rollback verdict applies")
	canaryMaxDisagree := fs.Float64("canary-max-disagree", 0.20, "per-sample disagreement rate that rolls a canary back automatically")
	canaryMaxRegress := fs.Float64("canary-max-alarm-regress", 0.10, "candidate alarm-rate increase over live that rolls a canary back")
	driftThreshold := fs.Float64("drift-threshold", 0.25, "feature-distribution distance against the baseline that flags drift")
	opts, tel := commonOpts(fs)
	if err := parseArgs(fs, args, opts, tel); err != nil {
		return err
	}
	defer tel.finish()
	if *bundlePath == "" {
		return fmt.Errorf("serve needs -bundle FILE (produce one with edem export)")
	}
	if *canaryPct != 0 && *shadowPath == "" {
		return fmt.Errorf("serve: -canary needs a -shadow FILE candidate")
	}
	if *canaryPct < 0 || *canaryPct > 99 {
		return fmt.Errorf("serve: -canary %d is outside 1-99 (promote fully with edem lifecycle promote)", *canaryPct)
	}
	pol, err := serve.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	b, err := serve.LoadBundle(*bundlePath)
	if err != nil {
		return err
	}
	reg := tel.serviceRegistry()
	var mon *lifecycle.Monitor
	if *lifecycleDir != "" {
		mon, err = lifecycle.NewMonitor(lifecycle.MonitorConfig{
			Dir:             *lifecycleDir,
			MinRequests:     *canaryMin,
			MaxDisagreeRate: *canaryMaxDisagree,
			MaxAlarmRegress: *canaryMaxRegress,
			Drift:           lifecycle.DriftConfig{MaxFeatureDistance: *driftThreshold},
			Registry:        reg,
		})
		if err != nil {
			return err
		}
		defer mon.Close()
	} else if *shadowPath != "" || *canaryPct != 0 {
		return fmt.Errorf("serve: -shadow and -canary need -lifecycle DIR")
	}
	s, err := serve.NewServer(b, *bundlePath, serve.Config{
		QueueDepth:      *queue,
		Workers:         opts.Workers,
		DefaultDeadline: *deadline,
		DrainTimeout:    *drain,
		Policy:          pol,
		Breaker:         serve.BreakerConfig{Threshold: *breakerThreshold, Cooldown: *breakerCooldown},
		AllowDelay:      *allowDelay,
		Registry:        reg,
		Monitor:         mon,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if *shadowPath != "" {
		if _, err := s.LoadShadow(*shadowPath); err != nil {
			return err
		}
		if *canaryPct > 0 {
			if _, err := s.Promote(*canaryPct); err != nil {
				return err
			}
		}
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if _, err := s.Reload(""); err != nil {
				fmt.Fprintln(os.Stderr, "edem: reload:", err)
			}
		}
	}()
	return s.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Fprintf(os.Stderr, "serving %d detectors on http://%s/ (policy %s, queue %d, deadline %v)\n",
			len(s.Detectors()), a, pol, *queue, *deadline)
	})
}

func cmdList() error {
	opts := core.DefaultOptions()
	for _, id := range core.AllDatasetIDs() {
		info, err := core.Info(id, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-11s %-10s inject=%-5s sample=%s\n",
			info.ID, info.Target, info.Module, info.InjectAt, info.SampleAt)
	}
	return nil
}
