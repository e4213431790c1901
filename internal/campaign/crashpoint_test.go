package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"edem/internal/campaign"
	"edem/internal/fabric"
	"edem/internal/telemetry"
)

// TestResumeAtEveryTornOffset is the campaign's crash-point harness:
// TestResumeToleratesTornTail's journal is cut at every byte offset of
// its last checkpoint line, each cut resumed twice: by campaign.Run, and
// along the fabric coordinator's path without HTTP (OpenLedger, an
// Executor running each pending shard, Commit, Seal). A cut at the
// line's start loses the shard cleanly, a cut that drops only the
// newline loses nothing, and any cut in between leaves one torn line:
// it is skipped, counted in Result.TornTails, Ledger.TornTails and
// campaign.torn_tails, and its shard re-runs. Every resume seals to the
// uninterrupted run's bytes.
func TestResumeAtEveryTornOffset(t *testing.T) {
	spec := fakeSpec(2)
	root := t.TempDir()
	refDir := filepath.Join(root, "ref")
	ref, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: refDir, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	x, err := campaign.NewExecutorShards(context.Background(), newFakeTarget(), spec, campaign.Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(refDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(filepath.Join(refDir, "checkpoints.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(sealed, []byte("\n"))
	last := len(lines[len(lines)-2])
	lineStart := len(sealed) - last

	// resume cuts the journal in dir k bytes into its last line and
	// resumes it, first through the ledger, then through Run. The
	// manifest stays; only the log is rewritten.
	cut := func(dir string, k int) error {
		return os.WriteFile(filepath.Join(dir, "checkpoints.jsonl"), sealed[:lineStart+k], 0o644)
	}
	isSealed := func(dir string) error {
		got, err := os.ReadFile(filepath.Join(dir, "checkpoints.jsonl"))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, sealed) {
			return fmt.Errorf("sealed journal differs from the uninterrupted run's")
		}
		return nil
	}
	resume := func(dir string, k int) error {
		restored, run, torn := 4, 1, 1
		switch k {
		case 0:
			torn = 0
		case last - 1:
			restored, run, torn = 5, 0, 0
		}

		if err := cut(dir, k); err != nil {
			return err
		}
		l, err := campaign.OpenLedger(newFakeTarget(), spec, campaign.Config{Journal: dir, Resume: true})
		if err != nil {
			return err
		}
		pending := l.Pending()
		for _, s := range pending {
			line, err := x.RunShard(context.Background(), s)
			if err != nil {
				return err
			}
			if _, _, err := l.Commit(line); err != nil {
				return err
			}
		}
		if err := l.Seal(); err != nil {
			return err
		}
		if len(pending) != run || l.TornTails() != torn {
			return fmt.Errorf("ledger: pending=%d torn=%d, want %d/%d", len(pending), l.TornTails(), run, torn)
		}
		if err := isSealed(dir); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}

		if err := cut(dir, k); err != nil {
			return err
		}
		reg := telemetry.New()
		res, err := campaign.Run(telemetry.WithRegistry(context.Background(), reg), newFakeTarget(), spec,
			campaign.Config{Journal: dir, Resume: true})
		if err != nil {
			return err
		}
		if res.ShardsRestored != restored || res.ShardsRun != run || res.TornTails != torn {
			return fmt.Errorf("restored=%d run=%d torn=%d, want %d/%d/%d",
				res.ShardsRestored, res.ShardsRun, res.TornTails, restored, run, torn)
		}
		if got := reg.Counter("campaign.torn_tails").Value(); got != int64(torn) {
			return fmt.Errorf("campaign.torn_tails = %d, want %d", got, torn)
		}
		if err := isSealed(dir); err != nil {
			return err
		}
		if !reflect.DeepEqual(res.Campaign.Records, ref.Campaign.Records) {
			return fmt.Errorf("resumed records differ from the uninterrupted run's")
		}
		return nil
	}

	// Under -short every 16th offset, plus those next to the line's
	// ends. The resumes wait on the disk, so four run at a time, each
	// in its own journal directory.
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		dir := filepath.Join(root, fmt.Sprintf("worker-%d", w))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				if err := resume(dir, k); err != nil {
					t.Errorf("cut %d of %d: %v", k, last, err)
				}
			}
		}()
	}
	for k := 0; k < last; k++ {
		if !testing.Short() || k%16 == 0 || k <= 1 || k >= last-2 {
			next <- k
		}
	}
	close(next)
	wg.Wait()
}

// TestResumeRefusesCorruptCheckpoint: a restored line outside the plan
// (shard 9 of 6, with no records, in place of shard 5) or with the
// wrong record count for its shard fails the ledger's one check when
// the journal is opened. campaign.Run and fabric.NewCoordinator, both
// resuming, return an error naming the shard before any shard runs,
// and leave the journal as it was.
func TestResumeRefusesCorruptCheckpoint(t *testing.T) {
	spec := fakeSpec(2)
	refDir := filepath.Join(t.TempDir(), "ref")
	ref, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: refDir, Shards: 6})
	if err != nil {
		t.Fatal(err)
	}
	manifest := readFileT(t, filepath.Join(refDir, "manifest.json"))
	lines := bytes.SplitAfter(readCheckpointLog(t, refDir), []byte("\n"))[:6]

	// short drops the first record of shard 2's line.
	var cp map[string]any
	if err := json.Unmarshal(lines[2], &cp); err != nil {
		t.Fatal(err)
	}
	cp["records"] = cp["records"].([]any)[1:]
	short, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, shard string
		log         [][]byte
	}{
		{"out of range", "shard 9", append(lines[:5:5],
			[]byte(fmt.Sprintf(`{"plan":%q,"shard":9,"records":[]}`+"\n", ref.PlanHash)))},
		{"short shard", "shard 2", [][]byte{lines[0], lines[1], append(short, '\n'), lines[3], lines[4], lines[5]}},
	} {
		corrupt := bytes.Join(c.log, nil)
		for _, front := range []string{"campaign.Run", "fabric.NewCoordinator"} {
			dir := filepath.Join(t.TempDir(), "journal")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "checkpoints.jsonl"), corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			target := newFakeTarget()
			cfg := campaign.Config{Journal: dir, Resume: true}
			if front == "campaign.Run" {
				_, err = campaign.Run(context.Background(), target, spec, cfg)
			} else {
				_, err = fabric.NewCoordinator(target, spec, cfg, fabric.CoordinatorConfig{Registry: telemetry.New()})
			}
			if err == nil || !strings.Contains(err.Error(), c.shard) {
				t.Errorf("%s, %s: err = %v, want an error naming %s", c.name, front, err, c.shard)
			}
			if len(target.calls) != 0 {
				t.Errorf("%s, %s: the target ran %d test cases before the refusal", c.name, front, len(target.calls))
			}
			if !bytes.Equal(readCheckpointLog(t, dir), corrupt) {
				t.Errorf("%s, %s: the refused journal was rewritten", c.name, front)
			}
		}
	}
}
