package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// envStamp records what a number was measured on; every output carries one.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
	Dataset    string `json:"dataset"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
}

func stampEnv(dataset string, nodes, edges int) envStamp {
	return envStamp{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     buildCommit(),
		Dataset:    dataset,
		Nodes:      nodes,
		Edges:      edges,
	}
}

// buildCommit is the git revision the binary was built from, as the go
// tool stamped it; "unknown" when the source tree was not a git checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// cpuTicks reads the machine-wide CPU counters of /proc/stat: ticks a
// hypervisor gave to someone else while this machine wanted to run, and all
// ticks. Two readings around a phase say what share of the machine the
// phase never got; on a shared sandbox that share, not the code, explains
// most outliers. Both are 0 where /proc/stat is missing.
func cpuTicks() (stolen, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i == 7 { // user nice system idle iowait irq softirq steal
			stolen = v
		}
		if i < 8 { // guest time is already in user
			total += v
		}
	}
	return stolen, total
}

// statusMB reads one of the process's memory figures from
// /proc/self/status, in MB: "VmRSS" is the resident set now, "VmHWM" its
// high-water mark.
func statusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("%s: %w", field, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line in /proc/self/status", field)
}

// residentMB is the resident set after a forced collection has handed free
// memory back to the OS: what the system retains — mapped pages it touched,
// caches, pooled search states — without the garbage between collections.
// The high-water mark includes that garbage, and how high it piles depends
// on when the collector happens to run: VmHWM moved by +-15% between
// identical runs, this figure by +-4%.
func residentMB() (float64, error) {
	debug.FreeOSMemory()
	return statusMB("VmRSS")
}
