package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildDir holds everything the benchmark leaves on disk apart from its
// reports: the daemon binary and, under scratch, this process's state
// dirs. It is relative to the working directory, so a checkout run from
// its root keeps all writes inside itself.
const buildDir = ".bench_build"

// scratch is this process's private directory under buildDir; cleanup
// removes it.
var scratch string

// children are the daemons currently alive, so that cleanup can reap
// them on any exit path. Once cleanup has begun, closing keeps the main
// goroutine — which runs on until the process exits — from starting
// another.
var (
	childMu  sync.Mutex
	children = map[*daemon]struct{}{}
	closing  bool
)

// prepareScratch creates the process's scratch directory.
func prepareScratch() error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	scratch, err = filepath.Abs(dir)
	return err
}

// cleanup kills every live daemon and removes the scratch directory.
// It runs on normal exit, on failure and on SIGINT/SIGTERM.
func cleanup() {
	childMu.Lock()
	closing = true
	live := make([]*daemon, 0, len(children))
	for d := range children {
		live = append(live, d)
	}
	childMu.Unlock()
	for _, d := range live {
		d.kill()
	}
	if scratch != "" {
		os.RemoveAll(scratch)
	}
}

// buildDaemon compiles the system under test, the real slaplace-serve
// binary, and returns its path and how long the build took.
func buildDaemon() (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "slaplace-serve"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	out, err := exec.Command("go", "build", "-o", bin, "slaplace/cmd/slaplace-serve").CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("go build slaplace-serve: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// daemon is one slaplace-serve child process.
type daemon struct {
	cmd *exec.Cmd
	url string
	log *daemonLog
}

// daemonLog receives the child's stderr: it picks the bound address out
// of the start-up line and keeps the tail for error reports.
type daemonLog struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	sent bool
}

var listenRe = regexp.MustCompile(`listening on (\S+) `)

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if !l.sent {
		if m := listenRe.FindSubmatch(l.buf); m != nil {
			l.sent = true
			l.addr <- string(m[1])
		}
	}
	if len(l.buf) > 8192 {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-4096:]...)
	}
	return len(p), nil
}

func (l *daemonLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.buf)
}

// startDaemon launches the binary on an ephemeral loopback port and
// returns once it answers /v1/readyz with 200.
func startDaemon(bin string, flags ...string) (*daemon, error) {
	// The send in Write happens once, so one slot never blocks it.
	log := &daemonLog{addr: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	cmd.Stderr = log
	d := &daemon{cmd: cmd, log: log}
	childMu.Lock()
	if closing {
		childMu.Unlock()
		return nil, errors.New("shutting down")
	}
	err := cmd.Start()
	if err == nil {
		children[d] = struct{}{}
	}
	childMu.Unlock()
	if err != nil {
		return nil, err
	}
	select {
	case addr := <-log.addr:
		d.url = "http://" + addr
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon did not announce its address:\n%s", log.tail())
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.url + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon never became ready (last error %v):\n%s", err, log.tail())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill ends the daemon the hard way — SIGKILL, no drain — and reaps it.
func (d *daemon) kill() {
	childMu.Lock()
	_, live := children[d]
	delete(children, d)
	childMu.Unlock()
	if !live {
		return
	}
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait() // the exit error is the point of a kill
}

// peakRSSMB reads the daemon's peak resident set from /proc. It fails
// off Linux, where the metric is reported as absent.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(d.cmd.Process.Pid)
}

func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := strings.CutPrefix(string(line), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
