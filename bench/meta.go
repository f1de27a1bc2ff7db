package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// meta is the environment block every ledger carries: host numbers mean
// nothing without the machine they were taken on.
type meta struct {
	NumCPU         int            `json:"numcpu"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	GoVersion      string         `json:"go_version"`
	CPUModel       string         `json:"cpu_model"`
	GitCommit      string         `json:"git_commit"`
	Seed           uint64         `json:"seed"`
	Passes         map[string]int `json:"passes"`
	HarnessSeconds float64        `json:"harness_seconds"`
}

func newMeta(seed uint64) meta {
	return meta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitCommit:  gitCommit("."),
		Seed:       seed,
		Passes:     map[string]int{},
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly (no subprocess, and
// nothing outside the checkout): "unknown" when root is not a git work
// tree, as in an exported checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // detached: HEAD holds the hash
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
