package lifecycle

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"

	"edem/internal/telemetry"
)

// Journal file names inside a lifecycle directory. Both files follow
// the campaign journal's scheme: append-only JSONL, one record per
// line, every append fsynced, and a line truncated by a kill
// mid-append simply fails to parse and is skipped on read (the torn
// tail).
const (
	// FeedbackName holds FeedbackRecord lines.
	FeedbackName = "feedback.jsonl"
	// DiffsName holds DiffRecord lines.
	DiffsName = "diffs.jsonl"
)

// Journal is one append-only fsynced JSONL file. Append is safe for
// concurrent use; Close exactly once after the last append.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (creating if needed) an append-only journal file,
// creating parent directories as required. A file that ends in a torn
// fragment (a kill mid-append) gets the fragment's line terminated
// first, so the next record starts on a line of its own: the fragment
// stays the one torn line and no acknowledged record is glued onto it.
func OpenJournal(path string) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := terminateTornTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f}, nil
}

// terminateTornTail appends a newline, fsynced, when f is non-empty and
// does not end in one.
func terminateTornTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, fi.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		return err
	}
	return f.Sync()
}

// Append marshals one record, appends it as a newline-terminated JSON
// line and fsyncs, so an acknowledged record survives any subsequent
// kill. Nil-safe: a nil journal absorbs appends (the disabled path).
func (j *Journal) Append(rec any) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the underlying file. Nil-safe.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// scanJournal reads every line of path, handing decodable lines to fn
// and counting undecodable ones (the torn tail of a killed append — or
// any hand-edited damage; either way the record is simply absent). A
// missing file is an empty journal, not an error.
func scanJournal(path string, fn func(line []byte) error) (torn int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if !json.Valid(line) {
			torn++
			continue
		}
		if err := fn(line); err != nil {
			return torn, err
		}
	}
	return torn, sc.Err()
}

// ReadFeedback loads every decodable feedback record from path,
// reporting the number of torn (skipped) lines alongside.
func ReadFeedback(path string) (recs []FeedbackRecord, torn int, err error) {
	torn, err = scanJournal(path, func(line []byte) error {
		var r FeedbackRecord
		if err := json.Unmarshal(line, &r); err != nil {
			torn++
			return nil
		}
		recs = append(recs, r)
		return nil
	})
	return recs, torn, err
}

// ReadDiffs loads every decodable verdict-diff record from path,
// reporting the number of torn (skipped) lines alongside.
func ReadDiffs(path string) (recs []DiffRecord, torn int, err error) {
	torn, err = scanJournal(path, func(line []byte) error {
		var r DiffRecord
		if err := json.Unmarshal(line, &r); err != nil {
			torn++
			return nil
		}
		recs = append(recs, r)
		return nil
	})
	return recs, torn, err
}

// asyncJournal decouples journal appends from the serve request path:
// records queue into a bounded channel and a single writer goroutine
// performs the fsynced appends. When the queue is full the record is
// dropped and counted (lifecycle.journal_drops) — the serving hot path
// must never block on disk. Close drains the queue before returning.
type asyncJournal struct {
	j     *Journal
	ch    chan any
	drops *telemetry.Counter
	wg    sync.WaitGroup
	once  sync.Once
}

// newAsyncJournal starts the writer goroutine over j with the given
// queue depth.
func newAsyncJournal(j *Journal, depth int, drops *telemetry.Counter) *asyncJournal {
	if depth <= 0 {
		depth = 256
	}
	a := &asyncJournal{j: j, ch: make(chan any, depth), drops: drops}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for rec := range a.ch {
			// A failed append is operational data lost, not a serving
			// fault; count it with the drops.
			if err := j.Append(rec); err != nil {
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
	return a.j.Close()
}
