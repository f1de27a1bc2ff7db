package core

import (
	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/runner"
)

// Options controls how the experiments run. The paper used 40000
// iterations and three repetitions; the simulation is deterministic, so
// far fewer iterations give stable means, but the counts remain
// configurable for fidelity.
type Options struct {
	Iterations int
	Warmup     int
	// Parallel is the sweep worker-pool size: 0 uses GOMAXPROCS, 1
	// forces serial execution. Every trial is an independent simulation
	// with a position-derived seed, so the results are bit-identical at
	// any worker count.
	Parallel int
	// BaseSeed, when nonzero, derives a deterministic per-trial RNG seed
	// from the trial's grid position (runner.SeedFor). Zero keeps each
	// configuration's own seeding, matching the historical serial output.
	BaseSeed uint64
}

// normalize applies defaults to zero fields.
func (o Options) normalize() Options {
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	return o
}

// runnerOpts translates experiment options into sweep-engine options.
func (o Options) runnerOpts() runner.Options {
	return runner.Options{Workers: o.Parallel, BaseSeed: o.BaseSeed}
}

// MeasureRTT runs the echo benchmark under one configuration on a fresh
// testbed and returns the mean round-trip time in microseconds.
func MeasureRTT(cfg lab.Config, size int, o Options) (float64, error) {
	m, err := cell{echo: echo{cfg: cfg, size: size}}.run(nil, 0, o.normalize())
	return m.rtt, err
}

// Sizes is the transfer-size set shared by every round-trip experiment
// (§1.2: 500 bytes and smaller from RPC/TCP traffic studies, plus 1400,
// 4000 and 8000).
var Sizes = []int{4, 20, 80, 200, 500, 1400, 4000, 8000}

// baseConfig is the paper's baseline system: BSD 4.4 alpha TCP over ATM,
// header prediction enabled, standard checksum.
func baseConfig() lab.Config {
	return lab.Config{Link: lab.LinkATM, Mode: cost.ChecksumStandard}
}
