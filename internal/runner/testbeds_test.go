package runner

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestTestbedsReuse pins the cache mechanics: a drained same-shape lab
// is reused, a different shape builds a new one, an undrained lab is
// never reused, and a nil cache always builds fresh.
func TestTestbedsReuse(t *testing.T) {
	drain := func(l *lab.Lab) {
		t.Helper()
		if _, err := l.RunEcho(4, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	tb := &Testbeds{}
	a := tb.Lab(lab.Config{Link: lab.LinkATM, Seed: 1}, 2)
	drain(a)
	b := tb.Lab(lab.Config{Link: lab.LinkATM, Mode: cost.ChecksumNone, Seed: 2}, 2)
	if a != b {
		t.Error("same-shape acquisition did not reuse the warm lab")
	}
	drain(b)
	c := tb.Lab(lab.Config{Link: lab.LinkEther, Seed: 3}, 2)
	if c == a {
		t.Error("different link kind handed back the same lab")
	}
	d := tb.Lab(lab.Config{Link: lab.LinkATM, Seed: 4}, 5)
	if d == a {
		t.Error("different host count handed back the same lab")
	}
	if tb.Built != 3 || tb.Reused != 1 {
		t.Errorf("built %d, reused %d; want 3 built, 1 reused", tb.Built, tb.Reused)
	}
	if got := tb.Lab(lab.Config{Link: lab.LinkATM, Seed: 5}, 2); got != a {
		t.Error("warm ATM pair lab was not reused on the third acquisition")
	}
	// The Ethernet lab was never run, so its spawn events are still
	// pending: reuse must refuse it and build fresh rather than strand
	// scheduled work.
	if got := tb.Lab(lab.Config{Link: lab.LinkEther, Seed: 6}, 2); got == c {
		t.Error("undrained lab was reused")
	}
	var nilTB *Testbeds
	if l := nilTB.Lab(lab.Config{Link: lab.LinkATM}, 2); l == nil {
		t.Error("nil Testbeds did not build a fresh lab")
	}
	if got := nilTB.Lab(lab.Config{Link: lab.LinkATM}, 1); len(got.Hosts) != 2 {
		t.Errorf("host floor not applied: %d hosts", len(got.Hosts))
	}
}

// TestTestbedsLeakGateFailsLoudly pins the CheckLeaks contract on the
// reuse path: a run that leaks an mbuf chain fails itself, with an error
// naming the leak, and the acquisition after it is an ordinary reuse —
// no panic, no eviction. The chain stays live (a pool keeps its gauges
// across Reset), so the next gated run on that testbed reports it too.
func TestTestbedsLeakGateFailsLoudly(t *testing.T) {
	tb := &Testbeds{}
	cfg := lab.Config{Link: lab.LinkATM, CheckLeaks: true, Seed: 1}
	l := tb.Lab(cfg, 2)
	// Manufacture, inside the run, the leak the gate exists to catch.
	l.Env.At(sim.Microsecond, "leak", func() { l.Hosts[0].Kern.Pool.Alloc() })
	if _, err := l.RunEcho(4, 2, 0); err == nil || !strings.Contains(err.Error(), "leaked 1 mbuf headers") {
		t.Fatalf("leaking run returned %v, want the leak gate's error", err)
	}
	if next := tb.Lab(cfg, 2); next != l || tb.Built != 1 || tb.Reused != 1 {
		t.Fatalf("acquisition after the leak: same testbed %v, built=%d reused=%d, want a reuse", next == l, tb.Built, tb.Reused)
	}
	if _, err := l.RunEcho(4, 2, 0); err == nil {
		t.Error("the next gated run on the leaked testbed did not report the live chain")
	}
}

// TestEchoTrialReuseByteIdentical is the sweep-level reuse-determinism
// contract: the same grid cell run on a fresh testbed and on a testbed
// previously used for a DIFFERENT cell (different checksum mode, size,
// socket buffer, and seed) must serialize to byte-identical JSON.
func TestEchoTrialReuseByteIdentical(t *testing.T) {
	cell := EchoTrial{
		Label:      "cell-under-test",
		Cfg:        lab.Config{Link: lab.LinkATM},
		Size:       1400,
		Iterations: 8,
		Warmup:     2,
	}
	const seed = 424242

	fresh, err := runEchoTrial(nil, cell, seed)
	if err != nil {
		t.Fatal(err)
	}

	tb := &Testbeds{}
	other := EchoTrial{
		Label:      "unrelated-cell",
		Cfg:        lab.Config{Link: lab.LinkATM, Mode: cost.ChecksumNone, SockBuf: 4096},
		Size:       200,
		Iterations: 5,
		Warmup:     1,
	}
	if _, err := runEchoTrial(tb, other, 99); err != nil {
		t.Fatal(err)
	}
	reused, err := runEchoTrial(tb, cell, seed)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Reused != 1 {
		t.Fatalf("second trial did not reuse the warm lab (reused=%d)", tb.Reused)
	}

	fj, _ := json.Marshal(fresh)
	rj, _ := json.Marshal(reused)
	if string(fj) != string(rj) {
		t.Errorf("fresh vs reused outcome JSON differs:\nfresh:  %s\nreused: %s", fj, rj)
	}
}

// TestSweepReuseMatchesFreshPerTrial cross-checks the whole grid: every
// outcome of a sweep on the reuse path equals the outcome of the same
// trial run alone on a fresh testbed, at one worker and at several.
func TestSweepReuseMatchesFreshPerTrial(t *testing.T) {
	g := Grid{
		Modes:      []cost.ChecksumMode{cost.ChecksumStandard, cost.ChecksumNone},
		Sizes:      []int{20, 1400, 8000},
		SockBufs:   []int{0, 4096},
		Iterations: 5,
		Warmup:     1,
	}
	trials := g.Trials()
	const base = 1994

	// The fresh-lab references are worker-independent; compute them once.
	fresh := make([]EchoOutcome, len(trials))
	for i, tr := range trials {
		v, err := runEchoTrial(nil, tr, SeedFor(base, i))
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = v.(EchoOutcome)
	}

	for _, workers := range []int{1, 3} {
		outs, err := RunEchoSweep(context.Background(), trials,
			Options{Workers: workers, BaseSeed: base})
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			if out.Error != "" {
				t.Fatalf("workers=%d cell %s: %s", workers, out.Label, out.Error)
			}
			want := fresh[i]
			want.Label, want.Index, want.Seed = out.Label, out.Index, out.Seed
			fj, _ := json.Marshal(want)
			rj, _ := json.Marshal(out)
			if string(fj) != string(rj) {
				t.Errorf("workers=%d cell %s: reuse-path outcome differs from fresh-lab outcome\nfresh: %s\nsweep: %s",
					workers, out.Label, fj, rj)
			}
		}
	}
}

// TestWorkloadTrialReuseByteIdentical extends the contract to the
// workload engine: a fan-in cell run on a testbed previously used for a
// different workload and host count must match a fresh run exactly.
func TestWorkloadTrialReuseByteIdentical(t *testing.T) {
	cell := WorkloadTrial{
		Label: "fanin-cell",
		Cfg:   lab.Config{Link: lab.LinkATM, HashPCBs: true},
		Hosts: 5,
		Gen:   workload.FanIn{Size: 200, Requests: 4, Warmup: 1},
	}
	const seed = 777

	fresh, err := runWorkloadTrial(nil, cell, seed)
	if err != nil {
		t.Fatal(err)
	}

	tb := &Testbeds{}
	other := WorkloadTrial{
		Label: "churn-cell",
		Cfg:   lab.Config{Link: lab.LinkATM},
		Hosts: 5,
		Gen:   workload.Churn{Conns: 3, Size: 64},
	}
	if _, err := runWorkloadTrial(tb, other, 3); err != nil {
		t.Fatal(err)
	}
	reused, err := runWorkloadTrial(tb, cell, seed)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Reused != 1 {
		t.Fatalf("workload trial did not reuse the warm topology (reused=%d)", tb.Reused)
	}

	fj, _ := json.Marshal(fresh)
	rj, _ := json.Marshal(reused)
	if string(fj) != string(rj) {
		t.Errorf("fresh vs reused workload outcome JSON differs:\nfresh:  %s\nreused: %s", fj, rj)
	}
}
