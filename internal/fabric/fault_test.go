package fabric

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"edem/internal/bitflip"
	"edem/internal/campaign"
	"edem/internal/telemetry"
)

// TestTwoWorkersMatchLocalRunPerModel extends the fabric acceptance
// test across the fault-model axis: for burst, stuck-at and
// intermittent campaigns, a coordinator plus two workers seal a
// journal byte-identical to a local run, and the coordinator
// advertises the fault axis in PlanStatus.
func TestTwoWorkersMatchLocalRunPerModel(t *testing.T) {
	for _, f := range []bitflip.Fault{
		{Model: bitflip.Burst, Width: 2},
		{Model: bitflip.StuckAt},
		{Model: bitflip.Intermittent, Persist: 2},
	} {
		t.Run(f.String(), func(t *testing.T) {
			spec := testSpec(2)
			spec.Fault = f
			localDir := filepath.Join(t.TempDir(), "local")
			if _, err := campaign.Run(context.Background(), testTarget{}, spec,
				campaign.Config{Journal: localDir, Shards: 4}); err != nil {
				t.Fatal(err)
			}

			fabricDir := filepath.Join(t.TempDir(), "fabric")
			co, err := NewCoordinator(testTarget{}, spec, campaign.Config{Journal: fabricDir, Shards: 4},
				coordConfig(2*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			if st := co.Status(); st.Fault != f.String() {
				t.Errorf("PlanStatus.Fault = %q, want %q", st.Fault, f.String())
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			serveErr := make(chan error, 1)
			go func() { serveErr <- co.Serve(ctx, ln) }()

			wcfg := WorkerConfig{
				Coordinator: "http://" + ln.Addr().String(),
				Poll:        10 * time.Millisecond,
				Registry:    telemetry.New(),
			}
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i := range errs {
				cfg := wcfg
				cfg.Name = []string{"alpha", "beta"}[i]
				w, err := NewWorker(ctx, testTarget{}, spec, campaign.Config{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = w.Run(ctx)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
			if err := <-serveErr; err != nil {
				t.Fatalf("serve: %v", err)
			}

			local := readJournal(t, localDir)
			fabric := readJournal(t, fabricDir)
			if !bytes.Equal(local, fabric) {
				t.Errorf("fabric journal differs from local journal (%d vs %d bytes)", len(fabric), len(local))
			}
		})
	}
}

// TestTransientPlanStatusOmitsFault: transient coordinators advertise
// no fault axis, keeping the wire format identical for old workers.
func TestTransientPlanStatusOmitsFault(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	co, err := NewCoordinator(testTarget{}, testSpec(1), campaign.Config{Journal: dir, Shards: 1},
		coordConfig(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if st := co.Status(); st.Fault != "" {
		t.Errorf("transient PlanStatus.Fault = %q, want empty", st.Fault)
	}
}
