// Package runner is the concurrent experiment-sweep engine. The paper's
// evaluation is a grid — link kind × checksum mode × PCB organization ×
// transfer size — of mutually independent trials, each of which builds
// its own simulated testbed (its own sim.Env) and runs to completion.
// That independence makes the sweep embarrassingly parallel, and this
// package shards the grid across a worker pool while keeping the results
// bit-identical to a serial run:
//
//   - Each job receives a deterministic RNG seed derived only from the
//     sweep's base seed and the job's position in the grid (SeedFor), so
//     scheduling order cannot perturb any simulation.
//   - Each job runs on one goroutine with its own sim.Env; environments
//     are never shared between workers.
//   - Outcomes are collected by grid index, so aggregation sees them in
//     grid order regardless of completion order.
//
// Execution is worker-affine: every worker owns a Testbeds cache of warm
// labs keyed by topology shape, and jobs acquire their lab through it —
// a trial rebinds an already-assembled topology (lab.Lab.Reset) instead
// of reconstructing kernels, mbuf pools, and
// event heaps per grid cell, which is where most of a sweep's wall-clock
// time and allocation volume used to go (see docs/PERFORMANCE.md). The
// reset restores bit-identical initial state, so reuse is invisible to
// every outcome.
//
// Run(ctx, jobs, Options{Workers: 1}) is the serial reference; any other
// worker count produces exactly the same outcomes, only faster.
//
// The guarantee extends to traced sweeps: a WorkloadTrial whose Cfg
// sets lab.Config.PacketTrace carries its per-packet timeline
// reconstruction inside the outcome (WorkloadOutcome.Trace), built from
// that trial's own lab, so even full span JSON is byte-identical at any
// worker count (TestTracedSweepParallelBitIdentical).
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// SeedFor derives the per-job RNG seed for the job at grid index i under
// base. It is a splitmix64 step over the pair, so seeds depend only on
// (base, index) — never on worker count or completion order — which is
// what makes parallel sweeps bit-identical to serial ones. A zero result
// is remapped so it cannot collide with "no seed requested".
func SeedFor(base uint64, index int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return z
}

// Job is one independent unit of sweep work. RunOn receives the context
// (observe it for cancellation in long jobs), the executing worker's
// warm-testbed cache, and the seed derived for the job's grid index —
// zero when the sweep did not request derived seeds, in which case the
// job keeps whatever seeding its configuration carries.
//
// Jobs that build a lab acquire it through tb.Lab, so consecutive trials
// on one worker reuse an assembled topology instead of reconstructing it.
// Because every reused lab is reset to bit-identical initial state and
// every seed derives from grid position alone, outcomes are
// byte-identical at any worker count, and identical whether a trial ran
// on a cold or warm testbed.
type Job struct {
	Label string
	RunOn func(ctx context.Context, tb *Testbeds, seed uint64) (any, error)
}

// Outcome is one job's result, reported at the job's grid index.
type Outcome struct {
	Index int
	Label string
	Seed  uint64
	Value any
	Err   error
}

// Options controls a sweep.
type Options struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS, 1 forces
	// the serial reference execution.
	Workers int
	// BaseSeed, when nonzero, derives a per-job seed (SeedFor) passed to
	// each job; zero passes 0, leaving per-job seeding untouched.
	BaseSeed uint64
	// Progress, when set, is called after each job completes with the
	// number done and the total. Calls are serialized.
	Progress func(done, total int)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the jobs across the worker pool and returns their outcomes
// indexed by grid position. Job errors (including recovered panics) are
// recorded per outcome, not returned; the returned error is non-nil only
// when ctx is cancelled, in which case outcomes of jobs that never
// started carry the context error.
func Run(ctx context.Context, jobs []Job, o Options) ([]Outcome, error) {
	outs := make([]Outcome, len(jobs))
	for i, j := range jobs {
		outs[i] = Outcome{Index: i, Label: j.Label}
		if o.BaseSeed != 0 {
			outs[i].Seed = SeedFor(o.BaseSeed, i)
		}
	}
	if len(jobs) == 0 {
		return outs, ctx.Err()
	}

	workers := o.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}

	idxc := make(chan int)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's private warm-testbed cache: labs are
			// single-threaded simulations, so affinity to one goroutine
			// is what makes reuse safe without any locking.
			tb := &Testbeds{}
			for i := range idxc {
				outs[i].Value, outs[i].Err = runOne(ctx, jobs[i], tb, outs[i].Seed)
				if o.Progress != nil {
					mu.Lock()
					done++
					o.Progress(done, len(jobs))
					mu.Unlock()
				}
			}
		}()
	}

feed:
	for i := range jobs {
		select {
		case idxc <- i:
		case <-ctx.Done():
			for j := i; j < len(jobs); j++ {
				if outs[j].Value == nil && outs[j].Err == nil {
					outs[j].Err = ctx.Err()
				}
			}
			break feed
		}
	}
	close(idxc)
	wg.Wait()
	return outs, ctx.Err()
}

// runOne executes one job, converting a panic in the simulation into an
// error so a bad cell cannot take down the whole sweep.
func runOne(ctx context.Context, j Job, tb *Testbeds, seed uint64) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: job %q panicked: %v", j.Label, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return j.RunOn(ctx, tb, seed)
}

// FirstError returns the first job error in grid order, or nil.
func FirstError(outs []Outcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.Label, o.Err)
		}
	}
	return nil
}
