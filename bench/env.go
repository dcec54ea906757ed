package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// environment is recorded in every result file: enough to tell whether
// two results are comparable, and how noisy the disk under the state
// dirs is.
type environment struct {
	Commit       string              `json:"commit"`
	GoVersion    string              `json:"goVersion"`
	NumCPU       int                 `json:"nproc"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	Kernel       string              `json:"kernel"`
	Seed         uint64              `json:"seed"`
	WindowSec    int                 `json:"windowSeconds"`
	DaemonFlags  map[string][]string `json:"daemonFlags"`
	StateDirFS   string              `json:"stateDirFilesystem"`
	FsyncProbeUs float64             `json:"fsyncProbeUs"`
}

func recordEnvironment(seed uint64, seconds int, daemonFlags map[string][]string) environment {
	env := environment{
		Commit:      commandOutput("git", "rev-parse", "--short", "HEAD"),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Kernel:      commandOutput("uname", "-sr"),
		Seed:        seed,
		WindowSec:   seconds,
		DaemonFlags: daemonFlags,
		StateDirFS:  filesystemOf(scratch),
	}
	// A checkpoint-sized write: what the disk alone charges per cycle.
	payload := bytes.Repeat([]byte{0x5a}, 1<<20)
	var probes []time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		if fsyncProbe(scratch, payload) != nil {
			break
		}
		probes = append(probes, time.Since(start))
	}
	os.Remove(filepath.Join(scratch, "probe.bin"))
	env.FsyncProbeUs = medianIn(probes, time.Microsecond)
	return env
}

// commandOutput is the trimmed output of a command, "unknown" when it
// cannot run (a checkout without git metadata, a host without uname).
func commandOutput(name string, args ...string) string {
	out, err := exec.Command(name, args...).Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// filesystemOf names the filesystem type holding path, from the mount
// table ("unknown" where there is none to read).
func filesystemOf(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		under := path == mount || strings.HasPrefix(path, strings.TrimSuffix(mount, "/")+"/")
		if under && len(mount) >= len(best) {
			best, fs = mount, f[2]
		}
	}
	return fs
}
