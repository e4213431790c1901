package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"time"

	"edem/bench/internal/report"
)

// genSpec is a detector-generation workload: `edem run` (Steps 1-4 and
// predicate extraction) on one dataset.
type genSpec struct {
	name    string
	dataset string
	scale   int
	stride  int
	// nominal is the typical wall clock of one rep on 2 CPUs at the
	// commit that added the benchmark. It fixes how many cycles a run
	// makes from --seconds alone, so the count never depends on how fast
	// the code under test is.
	nominal time.Duration
}

// gen-mg is campaign-heavy (5600 injected runs, campaign about half of
// the wall clock); gen-kv is refine-heavy (campaign about 1%). A
// campaign-layer change should move the first and not the second.
var (
	genMG = genSpec{name: "gen-mg", dataset: "MG-B1", scale: 10, stride: 4, nominal: 2500 * time.Millisecond}
	genKV = genSpec{name: "gen-kv", dataset: "KV-A2", scale: 2, stride: 4, nominal: 1400 * time.Millisecond}
)

func (g genSpec) args(seed uint64) []string {
	return []string{"-dataset", g.dataset, "-scale", strconv.Itoa(g.scale),
		"-stride", strconv.Itoa(g.stride), "-seed", strconv.FormatUint(seed, 10)}
}

// campaigns is how many campaign seeds have their outputs pinned in
// pins.json. It is also the fewest reps of a generation run, so it is
// kept small enough for a run of gen-mg to take under 20 s on 2 CPUs.
const campaigns = 4

// campaignSeed maps a seed onto the campaign seeds whose outputs are
// pinned, so every output is checked against a known digest: seed 1 is
// campaign seed 1, and seeds repeat with period 4.
func campaignSeed(seed uint64) uint64 { return 1 + (seed+campaigns-1)%campaigns }

// genSeeds lists the campaign seeds of an untraced generation run: whole
// cycles through all the pinned campaigns, starting at the run's seed.
// Every run thus measures the same campaigns, whose sizes differ, and a
// parent and a change compare like with like. The cycle count follows
// from --seconds and the workload's nominal rep time.
func (g genSpec) genSeeds(seed uint64, seconds time.Duration) []uint64 {
	cycles := max(1, int(math.Round(seconds.Seconds()/(campaigns*g.nominal.Seconds()))))
	seeds := make([]uint64, cycles*campaigns)
	for k := range seeds {
		seeds[k] = campaignSeed(seed + uint64(k))
	}
	return seeds
}

//go:embed pins.json
var pinsJSON []byte

// pins maps a workload to the sha256 of its saved predicate per
// campaign seed.
var pins = func() map[string]map[string]string {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("bench: pins.json: " + err.Error())
	}
	return p
}()

func genWorkload(g genSpec) workload {
	return func(b *bench) (*report.Workload, error) {
		w := newWorkload()
		var wall, cpu, rss []float64
		// The CLI's start-up is the generation workloads' set-up.
		st := &setups{once: b.cliStartup}
		// A traced run makes one untraced rep, the reference for the
		// trace overhead, on the campaign its trace then runs.
		seeds := []uint64{campaignSeed(b.seed)}
		if !b.trace {
			seeds = g.genSeeds(b.seed, b.seconds)
		}
		var digest string
		for _, seed := range seeds {
			if w.Failed >= minReps {
				break
			}
			if !b.trace {
				if err := st.take(setupsPerOp); err != nil {
					return nil, err
				}
			}
			pin := pins[g.name][strconv.FormatUint(seed, 10)]
			if pin == "" {
				return nil, fmt.Errorf("no pinned predicate digest for campaign seed %d", seed)
			}
			w.Attempted++
			c, got, err := g.runOnce(b, seed)
			if err != nil {
				w.fail("%v", err)
				continue
			}
			if got != pin {
				w.fail("campaign seed %d: predicate sha256 %s, want pinned %s", seed, got, pin)
				continue
			}
			digest = got
			wall = append(wall, c.wall().Seconds()*1e3)
			cpu = append(cpu, c.cpu().Seconds()*1e3)
			rss = append(rss, c.rssMiB())
		}
		w.set("latency_ms", wall)
		w.set("cpu_ms", cpu)
		w.set("peak_rss_mb", rss)
		if b.trace {
			if len(wall) == 0 {
				return w.Workload, nil
			}
			return w.Workload, b.traceGen(w, g, seeds[0], digest, wall)
		}
		if err := st.finish(); err != nil {
			return nil, err
		}
		w.set("setup_s", st.times)
		return w.Workload, nil
	}
}

// runOnce runs `edem run -save pred.json` in a fresh directory and
// returns the exited process with the sha256 of the saved predicate.
func (g genSpec) runOnce(b *bench, seed uint64) (*child, string, error) {
	dir, err := b.dir(g.name)
	if err != nil {
		return nil, "", err
	}
	c, err := b.start(dir, append([]string{"run"}, append(g.args(seed), "-save", "pred.json")...)...)
	if err != nil {
		return nil, "", err
	}
	if err := c.wait(); err != nil {
		return nil, "", err
	}
	digest, err := fileSHA256(filepath.Join(dir, "pred.json"))
	return c, digest, err
}

// cliStartup times the CLI's own start-up: exec to exit of `edem
// list`, which resolves all 18 dataset specs and exits. Start-up work a
// change adds shows here.
func (b *bench) cliStartup() (time.Duration, error) {
	c, err := b.start(b.work, "list")
	if err != nil {
		return 0, err
	}
	if err := c.wait(); err != nil {
		return 0, err
	}
	return c.wall(), nil
}
