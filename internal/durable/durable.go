// Package durable is edem's one way of making a file survive a crash:
// the campaign's checkpoint journal (Step 1's record) and the deployed
// detector (bundle, predicate) must outlive a kill. Every file edem
// writes goes through one of two operations (DESIGN.md §18):
//
//   - an append-only JSON-lines log (OpenLog, Log.Append, Scan), each
//     line fsynced before it is acknowledged;
//   - an atomic replace (WriteFile): temp file, fsync, rename over the
//     target, directory fsync.
//
// One torn-tail policy holds for every log: OpenLog terminates the
// fragment a kill mid-append left, so it stays one undecodable line
// that Scan counts and skips, and the next record is not glued onto it.
package durable

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// fileSystem is the seam through which every write, fsync, rename and
// directory fsync passes, so the tests can fail each one in turn.
// Outside them it is always osFS.
type fileSystem interface {
	writer(f *os.File) io.Writer
	sync(f *os.File) error
	rename(oldpath, newpath string) error
	syncDir(dir string) error
}

type osFS struct{}

func (osFS) writer(f *os.File) io.Writer          { return f }
func (osFS) sync(f *os.File) error                { return f.Sync() }
func (osFS) rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	return err
}

// Log is an open append-only JSON-lines file. Append is safe for
// concurrent use; Close once, after the last Append.
type Log struct {
	fs    fileSystem
	mu    sync.Mutex
	f     *os.File
	dir   string // a created file's directory, until an Append fsyncs it
	dirty bool   // a write failed and may have left a fragment
}

// OpenLog opens the log at path for appending, creating it and its
// parent directories if needed, and terminates a torn last line with
// a fsynced newline. If it creates the file, the first Append fsyncs
// the directory before acknowledging, so opening costs no directory
// fsync and a caller creating several files pays for one.
func OpenLog(path string) (*Log, error) { return openLog(osFS{}, path) }

func openLog(fsys fileSystem, path string) (*Log, error) {
	l := &Log{fs: fsys}
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		l.dir = filepath.Dir(path)
		if err := os.MkdirAll(l.dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	if err := l.terminate(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// terminate appends a fsynced newline when the file is non-empty and
// does not end in one.
func (l *Log) terminate() error {
	fi, err := l.f.Stat()
	if err != nil || fi.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := l.f.ReadAt(last, fi.Size()-1); err != nil || last[0] == '\n' {
		return err
	}
	if _, err := l.fs.writer(l.f).Write([]byte{'\n'}); err != nil {
		return err
	}
	return l.fs.sync(l.f)
}

// Append writes line as one newline-terminated line (adding the
// newline if it lacks one) and fsyncs it: a record whose Append
// returned nil survives any later kill. After a failed write the next
// Append terminates the fragment first.
func (l *Log) Append(line []byte) error {
	if len(line) == 0 || line[len(line)-1] != '\n' {
		line = append(line[:len(line):len(line)], '\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dirty {
		if err := l.terminate(); err != nil {
			return err
		}
		l.dirty = false
	}
	if _, err := l.fs.writer(l.f).Write(line); err != nil {
		l.dirty = true
		return err
	}
	if err := l.fs.sync(l.f); err != nil {
		return err
	}
	if l.dir != "" {
		if err := l.fs.syncDir(l.dir); err != nil {
			return err
		}
		l.dir = ""
	}
	return nil
}

// Close closes the log's file.
func (l *Log) Close() error { return l.f.Close() }

// Scan decodes every non-empty line of the log at path as a T and hands
// it to fn, in file order. A line that does not decode — the torn tail
// of a killed append, or other damage — is skipped and counted in torn.
// A missing file is an empty log. An error from fn stops the scan.
func Scan[T any](path string, fn func(T) error) (torn int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 256<<20) // a checkpoint line holds a whole shard
	for sc.Scan() {
		var v T
		switch {
		case len(sc.Bytes()) == 0:
		case json.Unmarshal(sc.Bytes(), &v) != nil:
			torn++
		default:
			if err := fn(v); err != nil {
				return torn, err
			}
		}
	}
	return torn, sc.Err()
}

// WriteFile replaces the file at path with what write produces, mode
// 0644: the bytes go to a temp file in the same directory, which is
// fsynced, closed and renamed over path, and then the directory is
// fsynced. If write or any step up to the rename fails, the temp file
// is removed and the previous file is untouched. A failed directory
// fsync is returned too, but the new content is in place by then.
func WriteFile(path string, write func(io.Writer) error) error {
	return writeFile(osFS{}, path, write)
}

func writeFile(fsys fileSystem, path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644) // CreateTemp's 0600 is for secrets
	if err == nil {
		err = write(fsys.writer(f))
	}
	if err == nil {
		err = fsys.sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return fsys.syncDir(filepath.Dir(path))
}
