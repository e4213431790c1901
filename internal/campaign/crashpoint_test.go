package campaign_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"edem/internal/campaign"
	"edem/internal/telemetry"
)

// TestResumeAtEveryTornOffset is the campaign's crash-point harness:
// TestResumeToleratesTornTail's journal is cut at every byte offset of
// its last checkpoint line, each cut resumed. A cut at the line's start
// loses the shard cleanly, a cut that drops only the newline loses
// nothing, and any cut in between leaves one torn line: it is skipped,
// counted in Result.TornTails and campaign.torn_tails, and its shard
// re-runs. Every resume seals to the uninterrupted run's bytes.
func TestResumeAtEveryTornOffset(t *testing.T) {
	spec := fakeSpec(2)
	root := t.TempDir()
	refDir := filepath.Join(root, "ref")
	ref, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: refDir, Shards: 5})
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
	// resumes it. The manifest stays; only the log is rewritten.
	resume := func(dir string, k int) error {
		if err := os.WriteFile(filepath.Join(dir, "checkpoints.jsonl"), sealed[:lineStart+k], 0o644); err != nil {
			return err
		}
		reg := telemetry.New()
		res, err := campaign.Run(telemetry.WithRegistry(context.Background(), reg), newFakeTarget(), spec,
			campaign.Config{Journal: dir, Resume: true})
		if err != nil {
			return err
		}
		restored, run, torn := 4, 1, 1
		switch k {
		case 0:
			torn = 0
		case last - 1:
			restored, run, torn = 5, 0, 0
		}
		if res.ShardsRestored != restored || res.ShardsRun != run || res.TornTails != torn {
			return fmt.Errorf("restored=%d run=%d torn=%d, want %d/%d/%d",
				res.ShardsRestored, res.ShardsRun, res.TornTails, restored, run, torn)
		}
		if got := reg.Counter("campaign.torn_tails").Value(); got != int64(torn) {
			return fmt.Errorf("campaign.torn_tails = %d, want %d", got, torn)
		}
		got, err := os.ReadFile(filepath.Join(dir, "checkpoints.jsonl"))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, sealed) {
			return fmt.Errorf("sealed journal differs from the uninterrupted run's")
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
