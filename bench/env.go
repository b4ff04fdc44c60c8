package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// processStart anchors setup_s: package initialisation runs before main, so
// this is as close to process start as the harness can observe.
var processStart = time.Now()

// hostInfo is recorded with every result so a number can be traced to the
// machine and code that produced it.
type hostInfo struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	P          int    `json:"p"`
}

func host() hostInfo {
	return hostInfo{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		P:          loadP(),
	}
}

// loadP is the load size P = min(nproc, 4): client connections, server
// workers, engine parallelism and rpcmr workers all use it, so the system
// and its load generator together never oversubscribe a small box.
func loadP() int { return min(runtime.NumCPU(), 4) }

// gitSHA is best effort: the benchmark driver's checkout is not a git
// repository, and a result is still valid without it.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far. The load generator
// shares the process with the system under test, so it is included — stated
// wherever cpu_ms_per_op is reported.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss (KiB on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
