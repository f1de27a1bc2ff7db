package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestGoroutineFootprintInsideRun pins the run-to-completion scheduler's
// resource contract at its sharpest point: mid-simulation, with a 17-host
// fan-in topology holding ~33 simulated processes (16 clients, 16
// per-connection servers, one accept loop) parked and runnable, the
// process count must not show up in runtime.NumGoroutine. Under a
// goroutine-per-proc design this sample reads tens of goroutines higher.
func TestGoroutineFootprintInsideRun(t *testing.T) {
	l := lab.NewTopology(lab.Config{Link: lab.LinkATM, Seed: 3}, 17)
	before := runtime.NumGoroutine()
	during := -1
	l.Env.At(sim.Millisecond, "sample", func() { during = runtime.NumGoroutine() })
	if _, err := (workload.FanIn{Size: 200, Requests: 4, Warmup: 1}).Run(l); err != nil {
		t.Fatal(err)
	}
	if during < 0 {
		t.Fatal("sample event never fired; fan-in finished before 1ms of virtual time")
	}
	if during > before+2 {
		t.Fatalf("goroutines mid-run = %d vs %d before: simulated procs are backed by goroutines",
			during, before)
	}
}

// TestGoroutineFootprintDuringSweep is the same contract at sweep scale:
// the live goroutine count tracks the worker pool, never the number of
// simulated processes. Each sample below is taken while the other
// workers are inside env.Run with ~33 procs each, so a goroutine-backed
// proc design would push the count up by roughly procs×workers.
func TestGoroutineFootprintDuringSweep(t *testing.T) {
	const workers = 4
	before := runtime.NumGoroutine()

	var mu sync.Mutex
	maxDuring := 0
	sample := func() {
		n := runtime.NumGoroutine()
		mu.Lock()
		if n > maxDuring {
			maxDuring = n
		}
		mu.Unlock()
	}

	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{
			Label: fmt.Sprintf("fanin%d", i),
			RunOn: func(context.Context, *Testbeds, uint64) (any, error) {
				l := lab.NewTopology(lab.Config{Link: lab.LinkATM, Seed: 9}, 17)
				_, err := (workload.FanIn{Size: 64, Requests: 4, Warmup: 1}).Run(l)
				sample()
				return nil, err
			},
		}
	}
	outs, err := Run(context.Background(), jobs, Options{
		Workers:  workers,
		Progress: func(done, total int) { sample() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := FirstError(outs); e != nil {
		t.Fatal(e)
	}
	// Budget: the pre-existing goroutines, one per worker, the collector,
	// and slack for the runtime's own background goroutines.
	limit := before + workers + 4
	if maxDuring > limit {
		t.Fatalf("goroutines peaked at %d (started at %d, %d workers): count scales with procs, not workers",
			maxDuring, before, workers)
	}
}
