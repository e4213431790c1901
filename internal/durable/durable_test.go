package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type rec struct {
	Seq int    `json:"seq"`
	Pad string `json:"pad,omitempty"`
}

func line(t *testing.T, r rec) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func readAll(t *testing.T, path string) (recs []rec, torn int) {
	t.Helper()
	torn, err := Scan(path, func(r rec) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, torn
}

func noTemps(t *testing.T, dir string) {
	t.Helper()
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	for _, body := range []string{"first\n", "second, longer\n", ""} {
		if err := WriteFile(path, func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Fatalf("file holds %q, want %q", got, body)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", fi.Mode().Perm())
	}
	noTemps(t, dir)
}

// TestWriteFileCallbackErrorKeepsTarget: a producer that fails part-way
// leaves the previous file byte-identical and no temp file behind.
func TestWriteFileCallbackErrorKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.json")
	if err := os.WriteFile(path, []byte("previous bytes\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("producer failed")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half a new fi")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the producer's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "previous bytes\n" {
		t.Fatalf("target changed to %q", got)
	}
	noTemps(t, dir)
}

func TestScanMissingAndEmptyLines(t *testing.T) {
	dir := t.TempDir()
	recs, torn := readAll(t, filepath.Join(dir, "missing.jsonl"))
	if len(recs) != 0 || torn != 0 {
		t.Fatalf("missing log: %d records, %d torn", len(recs), torn)
	}
	path := filepath.Join(dir, "log.jsonl")
	data := "\n" + `{"seq":1}` + "\n\n" + `[1,2]` + "\n" + `{"seq":2}` + "\n" + `{"seq":3,"pa`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn = readAll(t, path)
	if len(recs) != 2 || recs[0].Seq != 1 || recs[1].Seq != 2 || torn != 2 {
		t.Fatalf("got %+v torn=%d, want seq 1, 2 and 2 torn lines (wrong shape, fragment)", recs, torn)
	}
	stop := errors.New("stop")
	n := 0
	if _, err := Scan(path, func(rec) error { n++; return stop }); !errors.Is(err, stop) || n != 1 {
		t.Fatalf("callback error: err=%v after %d calls, want stop after 1", err, n)
	}
}

func TestLogAppendAddsNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "dir", "log.jsonl")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte(`{"seq":1}` + "xx")
	if err := l.Append(buf[:9]); err != nil {
		t.Fatal(err)
	}
	if string(buf) != `{"seq":1}xx` {
		t.Fatalf("Append wrote into the caller's slice: %q", buf)
	}
	if err := l.Append([]byte(`{"seq":2}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "{\"seq\":1}\n{\"seq\":2}\n" {
		t.Fatalf("log holds %q", got)
	}
}

// TestLogConcurrentAppends: appends from many goroutines land as whole
// lines, none lost or interleaved.
func TestLogConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var lines [writers][each][]byte
	for w := range lines {
		for i := range lines[w] {
			lines[w][i] = line(t, rec{Seq: w*each + i, Pad: strings.Repeat("p", w)})
		}
	}
	var wg sync.WaitGroup
	for w := range lines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ln := range lines[w] {
				if err := l.Append(ln); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn := readAll(t, path)
	seen := map[int]bool{}
	for _, r := range recs {
		seen[r.Seq] = true
	}
	if torn != 0 || len(recs) != writers*each || len(seen) != writers*each {
		t.Fatalf("%d records (%d distinct), %d torn; want %d whole records", len(recs), len(seen), torn, writers*each)
	}
}

// TestLogCrashPoints is the crash-point harness: the log is cut at
// every byte offset inside its last three records — every point a kill
// mid-append can leave — then reopened, appended to and scanned. Every
// record complete before the cut reads back, the new record reads back
// on a line of its own, the fragment stays exactly as the kill left it,
// and it is the one torn line.
func TestLogCrashPoints(t *testing.T) {
	dir := t.TempDir()
	var full []byte
	var starts, ends []int // each record's first byte and its newline
	for i := 0; i < 6; i++ {
		starts = append(starts, len(full))
		full = append(full, line(t, rec{Seq: i, Pad: strings.Repeat("x", 3*i)})...)
		ends = append(ends, len(full)-1)
	}
	added := line(t, rec{Seq: 100})
	for cut := starts[3]; cut <= len(full); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.jsonl", cut))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(added); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		var want []int
		wantTorn := 0
		for i := range starts {
			switch {
			case ends[i] <= cut: // whole JSON present, newline maybe cut
				want = append(want, i)
			case starts[i] < cut:
				wantTorn = 1
			}
		}
		want = append(want, 100)
		recs, torn := readAll(t, path)
		var got []int
		for _, r := range recs {
			got = append(got, r.Seq)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || torn != wantTorn {
			t.Fatalf("cut %d: records %v torn %d, want %v torn %d", cut, got, torn, want, wantTorn)
		}

		// Byte for byte: the cut file, its last line terminated, then
		// the appended line. Nothing is glued onto the fragment.
		wantBytes := append([]byte(nil), full[:cut]...)
		if cut > 0 && full[cut-1] != '\n' {
			wantBytes = append(wantBytes, '\n')
		}
		wantBytes = append(wantBytes, added...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, wantBytes) {
			t.Fatalf("cut %d: log holds\n%q\nwant\n%q", cut, data, wantBytes)
		}
	}
}

// errInjected is the error the fault file system returns.
var errInjected = errors.New("injected fault")

// faultFS is osFS with one injected failure: the at-th call (from 0)
// of operation op fails. A failed write writes half its bytes first,
// as a short write does.
type faultFS struct {
	osFS
	op    string
	at    int
	calls map[string]int
}

func newFaultFS(op string, at int) *faultFS {
	return &faultFS{op: op, at: at, calls: map[string]int{}}
}

func (f *faultFS) hit(op string) bool {
	n := f.calls[op]
	f.calls[op]++
	return op == f.op && n == f.at
}

func (f *faultFS) writer(fl *os.File) io.Writer { return faultWriter{f, fl} }

type faultWriter struct {
	fs *faultFS
	f  *os.File
}

func (w faultWriter) Write(p []byte) (int, error) {
	if w.fs.hit("write") {
		n, _ := w.f.Write(p[:len(p)/2])
		return n, errInjected
	}
	return w.f.Write(p)
}

func (f *faultFS) sync(fl *os.File) error {
	if f.hit("sync") {
		return errInjected
	}
	return fl.Sync()
}

func (f *faultFS) rename(oldpath, newpath string) error {
	if f.hit("rename") {
		return errInjected
	}
	return f.osFS.rename(oldpath, newpath)
}

func (f *faultFS) syncDir(dir string) error {
	if f.hit("syncdir") {
		return errInjected
	}
	return f.osFS.syncDir(dir)
}

// TestWriteFileFaults fails every write, fsync, rename and directory
// fsync of a replace in turn. Each error reaches the caller; up to the
// rename the target stays byte-identical, and no temp file is left.
func TestWriteFileFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	const old, repl = "old content\n", "new content, written in three pieces\n"
	produce := func(w io.Writer) error {
		for _, piece := range []string{repl[:4], repl[4:20], repl[20:]} {
			if _, err := io.WriteString(w, piece); err != nil {
				return err
			}
		}
		return nil
	}
	dry := newFaultFS("", 0)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(dry, path, produce); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"write", "sync", "rename", "syncdir"} {
		if dry.calls[op] == 0 {
			t.Fatalf("a replace never reaches %s", op)
		}
		for at := 0; at < dry.calls[op]; at++ {
			if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
				t.Fatal(err)
			}
			err := writeFile(newFaultFS(op, at), path, produce)
			if !errors.Is(err, errInjected) {
				t.Fatalf("%s #%d: err = %v, want the injected fault", op, at, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := old
			if op == "syncdir" { // the rename has happened
				want = repl
			}
			if string(got) != want {
				t.Fatalf("%s #%d: target holds %q, want %q", op, at, got, want)
			}
			noTemps(t, dir)
		}
	}
}

// TestLogFaults fails every write, fsync and directory fsync that
// opening and appending to a log performs, for a fresh log (whose
// first append fsyncs its directory) and a torn one (which terminates
// its fragment). Each error reaches the caller of OpenLog or Append;
// after it, appends go on without glue, and every record whose Append
// returned nil reads back.
func TestLogFaults(t *testing.T) {
	for _, start := range []string{"", `{"seq":0}` + "\n" + `{"seq":1,"pa`} {
		run := func(fsys *faultFS, path string) (acked []int, failed bool) {
			if start != "" {
				if err := os.WriteFile(path, []byte(start), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, err := openLog(fsys, path)
			if err != nil {
				if !errors.Is(err, errInjected) {
					t.Fatalf("OpenLog: %v, want the injected fault", err)
				}
				return nil, true
			}
			defer l.Close()
			for seq := 10; seq < 14; seq++ {
				err := l.Append(line(t, rec{Seq: seq, Pad: "abcdef"}))
				switch {
				case err == nil:
					acked = append(acked, seq)
				case errors.Is(err, errInjected):
					failed = true
				default:
					t.Fatalf("Append: %v, want the injected fault", err)
				}
			}
			return acked, failed
		}
		dry := newFaultFS("", 0)
		dir := t.TempDir()
		run(dry, filepath.Join(dir, "dry.jsonl"))
		for _, op := range []string{"write", "sync", "syncdir"} {
			for at := 0; at < dry.calls[op]; at++ {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", op, at))
				acked, failed := run(newFaultFS(op, at), path)
				if !failed {
					t.Fatalf("start %q, %s #%d: no caller saw the fault", start, op, at)
				}
				recs, _ := readAll(t, path)
				got := map[int]bool{}
				for _, r := range recs {
					got[r.Seq] = true
				}
				for _, seq := range acked {
					if !got[seq] {
						t.Fatalf("start %q, %s #%d: acknowledged record %d lost; log holds %+v",
							start, op, at, seq, recs)
					}
				}
			}
		}
		wantDirSyncs := 0
		if start == "" {
			wantDirSyncs = 1
		}
		if dry.calls["syncdir"] != wantDirSyncs {
			t.Fatalf("start %q: %d directory fsyncs, want one exactly when the log is created", start, dry.calls["syncdir"])
		}
	}
}
