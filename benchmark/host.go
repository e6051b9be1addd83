package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// host is the fingerprint every result records.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu"`
	// CPUQuota is the cgroup v2 CPU limit, which runtime.NumCPU does not
	// see ("max 100000" when unlimited).
	CPUQuota string `json:"cgroup_cpu_max"`
}

func fingerprint() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		CPUQuota:   cpuQuota(),
	}
}

// guard refuses a run the host cannot give its own cores: more Go threads
// than CPUs would time the scheduler's time slicing, not the program.
func (h host) guard() error {
	if h.GOMAXPROCS > h.NProc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this host", h.GOMAXPROCS, h.NProc)
	}
	return nil
}

// need refuses a workload that asks for more threads, clients or cores than
// the host has.
func (h host) need(what string, n int) error {
	if n > h.NProc {
		return fmt.Errorf("%s needs %d cores but this host has %d; refusing to oversubscribe", what, n, h.NProc)
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func cpuQuota() string {
	b, err := os.ReadFile("/sys/fs/cgroup/cpu.max")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
