package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/lab"
)

func TestSeedFor(t *testing.T) {
	if SeedFor(42, 0) != SeedFor(42, 0) {
		t.Fatal("SeedFor not deterministic")
	}
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		s := SeedFor(42, i)
		if s == 0 {
			t.Fatalf("index %d: zero seed", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("indices %d and %d collide", prev, i)
		}
		seen[s] = i
	}
	if SeedFor(1, 3) == SeedFor(2, 3) {
		t.Error("seeds should depend on the base")
	}
}

// TestSerialParallelIdentical is the engine's core guarantee: a sweep's
// outcomes are bit-identical whether it runs on one worker or many,
// because per-trial seeds depend only on grid position.
func TestSerialParallelIdentical(t *testing.T) {
	grid := Grid{
		Modes:      []cost.ChecksumMode{cost.ChecksumStandard, cost.ChecksumNone},
		Sizes:      []int{4, 1400},
		LossRates:  []float64{0, 0.001},
		Iterations: 6,
		Warmup:     1,
	}
	trials := grid.Trials()

	serial, err := RunEchoSweep(context.Background(), trials,
		Options{Workers: 1, BaseSeed: 1994})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunEchoSweep(context.Background(), trials,
		Options{Workers: 8, BaseSeed: 1994})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
	for _, o := range serial {
		if o.Error != "" {
			t.Fatalf("%s: %s", o.Label, o.Error)
		}
		if o.N == 0 || o.MeanMicros <= 0 {
			t.Fatalf("%s: empty outcome %+v", o.Label, o)
		}
	}
}

// TestBaseSeedZeroKeepsConfigSeeds checks the legacy path: without a base
// seed the engine must not touch per-config seeding, so existing serial
// call sites keep their exact outputs.
func TestBaseSeedZeroKeepsConfigSeeds(t *testing.T) {
	trial := EchoTrial{
		Label: "seeded", Cfg: lab.Config{Link: lab.LinkATM, Seed: 7}, Size: 4,
		Iterations: 4, Warmup: 1,
	}
	a, err := RunEchoSweep(context.Background(), []EchoTrial{trial}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEchoSweep(context.Background(), []EchoTrial{trial}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Seed != 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("zero base seed altered outcomes: %+v vs %+v", a, b)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int
	jobs := make([]Job, 8)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Label: fmt.Sprintf("job%d", i),
			RunOn: func(context.Context, *Testbeds, uint64) (any, error) {
				ran++
				if i == 1 {
					cancel()
				}
				return i, nil
			},
		}
	}
	outs, err := Run(ctx, jobs, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran >= len(jobs) {
		t.Error("cancellation did not stop the sweep")
	}
	if outs[0].Err != nil || outs[0].Value != 0 {
		t.Errorf("completed job lost its outcome: %+v", outs[0])
	}
	if outs[len(outs)-1].Err == nil {
		t.Error("unstarted job should carry the context error")
	}
}

func TestRunPanicBecomesError(t *testing.T) {
	jobs := []Job{
		{Label: "ok", RunOn: func(context.Context, *Testbeds, uint64) (any, error) { return 1, nil }},
		{Label: "boom", RunOn: func(context.Context, *Testbeds, uint64) (any, error) { panic("kaboom") }},
	}
	outs, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil {
		t.Errorf("healthy job failed: %v", outs[0].Err)
	}
	if outs[1].Err == nil {
		t.Fatal("panic not converted to an error")
	}
	if FirstError(outs) == nil {
		t.Error("FirstError missed the failure")
	}
}

func TestProgressReporting(t *testing.T) {
	var calls []int
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{RunOn: func(context.Context, *Testbeds, uint64) (any, error) { return nil, nil }}
	}
	_, err := Run(context.Background(), jobs, Options{
		Workers:  3,
		Progress: func(done, total int) { calls = append(calls, done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(jobs) || calls[len(calls)-1] != len(jobs) {
		t.Fatalf("progress calls %v", calls)
	}
	for i, c := range calls {
		if c != i+1 {
			t.Fatalf("progress not monotonic: %v", calls)
		}
	}
}

// TestExtendedDimensionsMatter verifies the beyond-paper sweep knobs
// change what the simulation does: a smaller MTU means more segments and
// a longer round trip, and a socket buffer below the transfer size
// serializes an 8000-byte transfer behind window updates.
func TestExtendedDimensionsMatter(t *testing.T) {
	measure := func(cfg lab.Config) float64 {
		l := lab.New(cfg)
		res, err := l.RunEcho(8000, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanRTTMicros()
	}
	base := measure(lab.Config{Link: lab.LinkATM})
	smallMTU := measure(lab.Config{Link: lab.LinkATM, MTU: 1500})
	smallBuf := measure(lab.Config{Link: lab.LinkATM, SockBuf: 4096})
	if smallMTU <= base {
		t.Errorf("MTU 1500 RTT %.0fµs not above default-MTU %.0fµs", smallMTU, base)
	}
	if smallBuf <= base {
		t.Errorf("4KB socket buffer RTT %.0fµs not above 16KB %.0fµs", smallBuf, base)
	}
}

func TestGridExpansion(t *testing.T) {
	g := ExtendedGrid(5, 1)
	trials := g.Trials()
	want := len(g.Sizes) * len(g.MTUs) * len(g.SockBufs) * len(g.LossRates)
	if len(trials) != want {
		t.Fatalf("grid expanded to %d cells, want %d", len(trials), want)
	}
	labels := map[string]bool{}
	for _, tr := range trials {
		if labels[tr.Label] {
			t.Fatalf("duplicate cell label %q", tr.Label)
		}
		labels[tr.Label] = true
	}
	// The zero grid is the single baseline cell.
	if n := len((Grid{}).Trials()); n != 1 {
		t.Fatalf("zero grid expanded to %d cells", n)
	}
}
