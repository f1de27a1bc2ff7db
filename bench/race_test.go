//go:build race

package main

// raceEnabled: the race detector's own runtime dominates a CPU profile,
// so the share checks that bound other.share do not apply.
const raceEnabled = true
