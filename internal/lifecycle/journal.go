package lifecycle

import (
	"encoding/json"
	"sync"

	"edem/internal/durable"
	"edem/internal/telemetry"
)

// Journal file names inside a lifecycle directory. Both files are
// internal/durable logs, like the campaign journal: append-only JSONL,
// one record per line, every append fsynced. A line truncated by a
// kill mid-append fails to decode and is skipped on read (the torn
// tail); reopening the journal terminates it, so the next record
// starts on a line of its own.
const (
	// FeedbackName holds FeedbackRecord lines.
	FeedbackName = "feedback.jsonl"
	// DiffsName holds DiffRecord lines.
	DiffsName = "diffs.jsonl"
)

// appendJSON marshals rec and appends it to l as one fsynced line.
func appendJSON(l *durable.Log, rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return l.Append(data)
}

// asyncJournal decouples journal appends from the serve request path:
// records queue into a bounded channel and a single writer goroutine
// performs the fsynced appends. When the queue is full the record is
// dropped and counted (lifecycle.journal_drops) — the serving hot path
// must never block on disk. Close drains the queue before returning.
type asyncJournal struct {
	l     *durable.Log
	ch    chan any
	drops *telemetry.Counter
	wg    sync.WaitGroup
	once  sync.Once
}

// newAsyncJournal starts the writer goroutine over l with the given
// queue depth.
func newAsyncJournal(l *durable.Log, depth int, drops *telemetry.Counter) *asyncJournal {
	if depth <= 0 {
		depth = 256
	}
	a := &asyncJournal{l: l, ch: make(chan any, depth), drops: drops}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for rec := range a.ch {
			// A failed append is operational data lost, not a serving
			// fault; count it with the drops.
			if err := appendJSON(l, rec); err != nil {
				drops.Inc()
			}
		}
	}()
	return a
}

// append enqueues one record without blocking; a full queue drops it
// and bumps the drop counter.
func (a *asyncJournal) append(rec any) {
	select {
	case a.ch <- rec:
	default:
		a.drops.Inc()
	}
}

// close drains pending records, stops the writer and closes the file.
func (a *asyncJournal) close() error {
	a.once.Do(func() {
		close(a.ch)
	})
	a.wg.Wait()
	return a.l.Close()
}
