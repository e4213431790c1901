package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"edem/bench/internal/report"
)

// fabricSpec is a distributed-campaign workload: `edem fabric serve`
// and fabricWorkers × `edem fabric work` over loopback. It is the
// campaign layer with an fsynced journal, HTTP leases and uploads and
// work-stealing added, on gen-mg's campaign.
type fabricSpec struct {
	name string
	gen  genSpec
}

var fabricMG = fabricSpec{name: "fabric-mg", gen: genMG}

const fabricWorkers = 2

var listeningRE = regexp.MustCompile(`coordinator listening on (\S+)`)

func fabricWorkload(f fabricSpec) workload {
	return func(b *bench) (*report.Workload, error) {
		w := newWorkload()
		seed := campaignSeed(b.seed)
		// The reference: a local journal of the same campaign. Every
		// sealed fabric journal must match it byte for byte.
		dir, err := b.dir(f.name)
		if err != nil {
			return nil, err
		}
		local := filepath.Join(dir, "local")
		if err := b.runCLI(dir, append([]string{"campaign"}, append(f.gen.args(seed), "-journal", local)...)...); err != nil {
			return nil, err
		}
		want, err := os.ReadFile(filepath.Join(local, f.gen.dataset, "checkpoints.jsonl"))
		if err != nil {
			return nil, err
		}

		// A set-up is a launch stopped once the workers execute.
		st := &setups{once: func() (time.Duration, error) {
			l, err := f.launch(b, seed)
			if err != nil {
				return 0, err
			}
			for _, c := range append(l.workers, l.co) {
				c.kill()
			}
			return l.setup, nil
		}}
		var wall, cpu, rss []float64
		for begin := time.Now(); w.more(len(wall), begin, b); {
			if !b.trace {
				if err := st.take(setupsPerOp); err != nil {
					return nil, err
				}
			}
			w.Attempted++
			op, err := f.runOnce(b, seed, want)
			if err != nil {
				w.fail("%v", err)
				continue
			}
			wall = append(wall, op.wall.Seconds()*1e3)
			cpu = append(cpu, op.cpu.Seconds()*1e3)
			rss = append(rss, op.rss)
		}
		w.set("latency_ms", wall)
		w.set("cpu_ms", cpu)
		w.set("peak_rss_mb", rss)
		if b.trace {
			if len(wall) == 0 {
				return w.Workload, nil
			}
			return w.Workload, b.traceFabric(w, f, seed, want, wall)
		}
		if err := st.finish(); err != nil {
			return nil, err
		}
		w.set("setup_s", st.times)
		return w.Workload, nil
	}
}

// launched is a fabric campaign whose workers are executing.
type launched struct {
	dir     string
	co      *child
	workers []*child
	setup   time.Duration
}

// launch starts a coordinator on a fresh journal and the workers, and
// returns once every worker has announced it is executing. Set-up runs
// from the coordinator's exec to that moment: plan build, golden runs
// and the plan-hash check.
func (f fabricSpec) launch(b *bench, seed uint64) (*launched, error) {
	dir, err := b.dir(f.name)
	if err != nil {
		return nil, err
	}
	co, err := b.start(dir, append([]string{"fabric", "serve"},
		append(f.gen.args(seed), "-journal", "journal", "-addr", "127.0.0.1:0")...)...)
	if err != nil {
		return nil, err
	}
	line, _, err := co.waitLine("coordinator listening on", time.Minute)
	if err != nil {
		return nil, err
	}
	addr := listeningRE.FindStringSubmatch(line)[1]
	l := &launched{dir: dir, co: co}
	for i := 0; i < fabricWorkers; i++ {
		wk, err := b.start(dir, append([]string{"fabric", "work"},
			append(f.gen.args(seed), "-coordinator", "http://"+addr)...)...)
		if err != nil {
			return nil, err
		}
		l.workers = append(l.workers, wk)
	}
	for _, wk := range l.workers {
		_, at, err := wk.waitLine(" executing for ", time.Minute)
		if err != nil {
			return nil, err
		}
		l.setup = max(l.setup, at.Sub(co.start))
	}
	return l, nil
}

// fabricOp is one measured fabric campaign.
type fabricOp struct {
	wall, cpu time.Duration
	rss       float64
}

// runOnce runs one fabric campaign into a fresh journal. Wall clock
// runs from the coordinator's exec to the last worker's exit. Once the
// workers are done the coordinator is stopped, which seals the journal
// at once instead of after its one-second linger for late workers.
func (f fabricSpec) runOnce(b *bench, seed uint64, want []byte) (*fabricOp, error) {
	l, err := f.launch(b, seed)
	if err != nil {
		return nil, err
	}
	var last time.Time
	for _, wk := range l.workers {
		if err := wk.wait(); err != nil {
			return nil, err
		}
		if wk.end.After(last) {
			last = wk.end
		}
	}
	op := &fabricOp{wall: last.Sub(l.co.start)}
	if err := l.co.stop(); err != nil {
		return nil, err
	}
	if !strings.Contains(l.co.output(), "journal sealed") {
		return nil, fmt.Errorf("coordinator did not seal its journal:\n%s", l.co.output())
	}
	got, err := os.ReadFile(filepath.Join(l.dir, "journal", f.gen.dataset, "checkpoints.jsonl"))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("sealed fabric journal (%d bytes) differs from the local journal (%d bytes)", len(got), len(want))
	}
	for _, c := range append(l.workers, l.co) {
		op.cpu += c.cpu()
		op.rss = max(op.rss, c.rssMiB())
	}
	return op, nil
}
