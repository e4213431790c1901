package lifecycle

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"edem/internal/durable"
	"edem/internal/telemetry"
)

func TestFeedbackJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feedback.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []FeedbackRecord{
		{UnixMS: 1, Detector: "a", Generation: 1, Alarm: true, Outcome: OutcomeTrueAlarm, Source: SourceOperator},
		{UnixMS: 2, Detector: "b", Alarm: false, Outcome: OutcomeBenign, Source: SourceGolden,
			State: EncodeState([]float64{1.5, math.NaN(), math.Inf(-1)}), Note: "note"},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := scanAll[FeedbackRecord](path)
	if err != nil || torn != 0 {
		t.Fatalf("read: torn=%d err=%v", torn, err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	if got[0].Detector != "a" || got[1].Note != "note" {
		t.Fatalf("records mangled: %+v", got)
	}
	// Non-finite state survives bit-exactly.
	vals, err := decodeState(got[1].State)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 1.5 || !math.IsNaN(vals[1]) || !math.IsInf(vals[2], -1) {
		t.Fatalf("state round-trip lost non-finite values: %v", vals)
	}
}

// TestJournalTornTail pins the crash contract: a half-written final
// line (a kill mid-append) is skipped and counted, every complete line
// before it survives.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diffs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(DiffRecord{Detector: "d", LiveGen: 1, CandGen: 2, Served: "live", Index: []int{i + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: append half a record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"detector":"d","live_gen":1,"ca`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, torn, err := scanAll[DiffRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 1 {
		t.Fatalf("torn = %d, want 1", torn)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want the 3 complete ones", len(recs))
	}

	// Appends continue cleanly after the torn tail: reopening
	// terminates the fragment's line, so the new record starts on its
	// own line and the fragment stays the one torn line.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(DiffRecord{Detector: "e", LiveGen: 3, CandGen: 4, Served: "live"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	recs2, torn2, err := scanAll[DiffRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	if torn2 != 1 {
		t.Fatalf("torn after continued appends = %d, want still 1", torn2)
	}
	if len(recs2) != 4 || recs2[3].Detector != "e" {
		t.Fatalf("got %d records, want the 3 complete ones plus the appended one", len(recs2))
	}
}

// TestJournalAppendAfterTornTail pins crash recovery: an acknowledged
// (fsynced) record appended after reopening a journal with a torn tail
// must read back, and reopening a clean journal must leave it
// byte-identical.
func TestJournalAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), FeedbackName)
	if err := os.WriteFile(path, []byte(`{"detector":"a","alarm":tr`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := FeedbackRecord{UnixMS: 7, Detector: "b", Alarm: true, Outcome: OutcomeTrueAlarm, Source: SourceOperator}
	if err := j.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := scanAll[FeedbackRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 1 || len(recs) != 1 || recs[0].Detector != "b" || recs[0].UnixMS != 7 {
		t.Fatalf("recs=%+v torn=%d, want the appended record and 1 torn line", recs, torn)
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("reopening a clean journal changed it: %q -> %q", before, after)
	}
}

func TestReadMissingJournal(t *testing.T) {
	recs, torn, err := scanAll[FeedbackRecord](filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || torn != 0 || len(recs) != 0 {
		t.Fatalf("missing journal: recs=%v torn=%d err=%v, want empty", recs, torn, err)
	}
}

// TestAsyncJournalDrops pins the overflow contract: a full queue drops
// and counts instead of blocking.
func TestAsyncJournalDrops(t *testing.T) {
	path := filepath.Join(t.TempDir(), DiffsName)
	l, err := durable.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	drops := telemetry.New().Counter("lifecycle.journal_drops")
	a := newAsyncJournal(l, 1, drops)
	// Far more records than the one-slot queue can hold; none may
	// block, and drops + journalled lines must account for all of them.
	const n = 500
	for i := 0; i < n; i++ {
		a.append(DiffRecord{Detector: "d", Served: "live", Index: []int{1}, Live: []bool{false}})
	}
	if err := a.close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := scanAll[DiffRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs))+drops.Value() != n {
		t.Fatalf("journalled %d + dropped %d != %d submitted", len(recs), drops.Value(), n)
	}
	if len(recs) == 0 {
		t.Fatal("everything dropped: the writer never ran")
	}
}

// TestMonitorRollbackVerdict pins the canary rollback latch: below
// MinRequests no verdict, past it exactly one, and only while
// canaried.
func TestMonitorRollbackVerdict(t *testing.T) {
	m, err := NewMonitor(MonitorConfig{
		Dir: t.TempDir(), MinRequests: 10, MaxDisagreeRate: 0.5, Registry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Shadow-only disagreements never trigger, regardless of volume.
	for i := 0; i < 50; i++ {
		if rb, _ := m.RecordShadow("d", "live", []bool{false}, []bool{true}, nil, 1, 2, false); rb {
			t.Fatal("rollback verdict while not canaried")
		}
	}
	m.ResetWindow()

	fired := 0
	for i := 0; i < 50; i++ {
		rb, reason := m.RecordShadow("d", "candidate", []bool{false}, []bool{true}, nil, 1, 2, true)
		if rb {
			fired++
			if reason == "" {
				t.Fatal("rollback verdict with empty reason")
			}
			if w := m.Window(); w.Requests < 10 {
				t.Fatalf("verdict fired at %d requests, below MinRequests", w.Requests)
			}
		}
	}
	if fired != 1 {
		t.Fatalf("rollback verdict fired %d times, want exactly once (latched)", fired)
	}

	// A window reset re-arms the latch for the next candidate.
	m.ResetWindow()
	fired = 0
	for i := 0; i < 50; i++ {
		if rb, _ := m.RecordShadow("d", "candidate", []bool{false}, []bool{true}, nil, 1, 3, true); rb {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("rollback verdict after reset fired %d times, want once", fired)
	}
}

// decodeState parses the EncodeState transport back into float64s.
func decodeState(hex []string) ([]float64, error) {
	if hex == nil {
		return nil, nil
	}
	out := make([]float64, len(hex))
	for i, s := range hex {
		bits, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("lifecycle: bad state bits %q: %w", s, err)
		}
		out[i] = math.Float64frombits(bits)
	}
	return out, nil
}
