package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one started program process. Its stdout and stderr lines
// are kept with their arrival times, so the benchmark can time the
// moment a process announces readiness.
type child struct {
	name  string
	cmd   *exec.Cmd
	start time.Time

	mu      sync.Mutex
	lines   []timedLine
	changed chan struct{} // closed and replaced on every new line

	done chan struct{} // closed once the process has been reaped
	end  time.Time
	err  error
}

type timedLine struct {
	at   time.Time
	text string
}

// start launches edem in dir.
func (b *bench) start(dir string, args ...string) (*child, error) {
	return b.startBin(b.edem, dir, args...)
}

// startBin launches a program in dir. The process is killed if the
// benchmark dies first (Linux parent-death signal), and the procs list
// reaps it on every exit path.
func (b *bench) startBin(bin, dir string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{name: filepath.Base(bin) + " " + strings.Join(args, " "), cmd: cmd,
		changed: make(chan struct{}), done: make(chan struct{})}
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	b.procs.add(c)
	var readers sync.WaitGroup
	readers.Add(2)
	go c.scan(stdout, &readers)
	go c.scan(stderr, &readers)
	go func() {
		readers.Wait()
		c.err = cmd.Wait()
		c.end = time.Now()
		close(c.done)
	}()
	return c, nil
}

func (c *child) scan(r io.Reader, wg *sync.WaitGroup) {
	defer wg.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		c.mu.Lock()
		c.lines = append(c.lines, timedLine{at: time.Now(), text: sc.Text()})
		close(c.changed)
		c.changed = make(chan struct{})
		c.mu.Unlock()
	}
	// Drain anything past an over-long line so the child never blocks
	// on a full pipe.
	_, _ = io.Copy(io.Discard, r)
}

// waitLine waits until the process prints a line containing substr and
// returns it with its arrival time.
func (c *child) waitLine(substr string, timeout time.Duration) (string, time.Time, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for seen := 0; ; {
		c.mu.Lock()
		for ; seen < len(c.lines); seen++ {
			if l := c.lines[seen]; strings.Contains(l.text, substr) {
				c.mu.Unlock()
				return l.text, l.at, nil
			}
		}
		changed := c.changed
		c.mu.Unlock()
		select {
		case <-changed:
		case <-c.done:
			// The process exited; one last look at what it printed.
			c.mu.Lock()
			n := len(c.lines)
			c.mu.Unlock()
			if seen == n {
				return "", time.Time{}, fmt.Errorf("%s exited (%v) before printing %q:\n%s", c.name, c.err, substr, c.output())
			}
		case <-deadline.C:
			return "", time.Time{}, fmt.Errorf("%s: no %q after %v:\n%s", c.name, substr, timeout, c.output())
		}
	}
}

// output is everything the process printed so far.
func (c *child) output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sb strings.Builder
	for _, l := range c.lines {
		sb.WriteString(l.text)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// wait blocks until the process has exited and been reaped, and returns
// its exit error with the output attached.
func (c *child) wait() error {
	<-c.done
	if c.err != nil {
		return fmt.Errorf("%s: %w:\n%s", c.name, c.err, c.output())
	}
	return nil
}

// signal sends sig unless the process has already been reaped.
func (c *child) signal(sig os.Signal) {
	select {
	case <-c.done:
	default:
		_ = c.cmd.Process.Signal(sig)
	}
}

// stop asks the process to exit (SIGTERM, which every edem service
// handles by draining) and waits for it.
func (c *child) stop() error {
	c.signal(syscall.SIGTERM)
	return c.wait()
}

// kill kills the process and waits until it has been reaped.
func (c *child) kill() {
	c.signal(syscall.SIGKILL)
	<-c.done
}

// wall is the time from exec to exit.
func (c *child) wall() time.Duration { return c.end.Sub(c.start) }

// cpu is the user+system time of the exited process.
func (c *child) cpu() time.Duration {
	st := c.cmd.ProcessState
	return st.UserTime() + st.SystemTime()
}

// rssMiB is the exited process's peak resident set.
func (c *child) rssMiB() float64 {
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// clockTicks is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every mainstream Linux build.
const clockTicks = 100

// liveCPU reads a running process's user+system time from
// /proc/<pid>/stat.
func (c *child) liveCPU() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may contain spaces
// and parentheses, so fields are counted from its closing parenthesis.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat cpu field: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procList tracks every started process so none outlives the benchmark.
type procList struct {
	mu   sync.Mutex
	list []*child
}

func (p *procList) add(c *child) {
	p.mu.Lock()
	p.list = append(p.list, c)
	p.mu.Unlock()
}

// killAll kills whatever is still running and waits for all of it.
func (p *procList) killAll() {
	p.mu.Lock()
	list := p.list
	p.list = nil
	p.mu.Unlock()
	for _, c := range list {
		c.kill()
	}
}
