package lab

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// runEchoOn runs the echo benchmark and returns the full result; any
// error fails the test.
func runEchoOn(t *testing.T, l *Lab, size int) *EchoResult {
	t.Helper()
	res, err := l.RunEcho(size, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResetBitIdentical is the testbed-reuse determinism contract: a lab
// previously used for a DIFFERENT trial (different link knobs, size, and
// seed) and then Reset to a new configuration must produce results
// byte-identical to a freshly constructed lab at that configuration.
func TestResetBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		warmCfg Config // the unrelated trial the reused lab runs first
		warmSz  int
		cfg     Config // the trial under comparison
		size    int
	}{
		{
			name:    "atm",
			warmCfg: Config{Link: LinkATM, Mode: cost.ChecksumNone, SockBuf: 4096, Seed: 3},
			warmSz:  200,
			cfg:     Config{Link: LinkATM, Seed: 7},
			size:    1400,
		},
		{
			name:    "atm-traced-then-untraced",
			warmCfg: Config{Link: LinkATM, PacketTrace: true, Seed: 11},
			warmSz:  8000,
			cfg:     Config{Link: LinkATM, DisablePrediction: true, Seed: 7},
			size:    4000,
		},
		{
			name:    "ether",
			warmCfg: Config{Link: LinkEther, MTU: 576, Seed: 5},
			warmSz:  80,
			cfg:     Config{Link: LinkEther, Seed: 9},
			size:    1400,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := runEchoOn(t, New(tc.cfg), tc.size)

			l := New(tc.warmCfg)
			runEchoOn(t, l, tc.warmSz)
			if err := l.Reset(tc.cfg, 0); err != nil {
				t.Fatal(err)
			}
			reused := runEchoOn(t, l, tc.size)

			if !reflect.DeepEqual(fresh.RTTs, reused.RTTs) {
				t.Errorf("RTTs diverge: fresh %v vs reused %v", fresh.RTTs[:3], reused.RTTs[:3])
			}
			if !reflect.DeepEqual(fresh.Windows, reused.Windows) {
				t.Errorf("iteration windows diverge after reuse")
			}
			if fresh.CorruptEchoes != reused.CorruptEchoes {
				t.Errorf("corrupt echoes: fresh %d vs reused %d", fresh.CorruptEchoes, reused.CorruptEchoes)
			}
		})
	}
}

// TestResetRepeatedReuse drives one testbed through a chain of unrelated
// trials and checks every one against a fresh lab — the worker-affine
// sweep pattern, where a warm lab serves many grid cells in sequence.
func TestResetRepeatedReuse(t *testing.T) {
	trials := []struct {
		cfg  Config
		size int
	}{
		{Config{Link: LinkATM, Seed: 1}, 4},
		{Config{Link: LinkATM, Mode: cost.ChecksumIntegrated, Seed: 2}, 8000},
		{Config{Link: LinkATM, DisablePrediction: true, LivePCBs: 50, Seed: 3}, 200},
		{Config{Link: LinkATM, SockBuf: 4096, Seed: 4}, 8000},
		{Config{Link: LinkATM, MTU: 1500, Seed: 5}, 4000},
		{Config{Link: LinkATM, BurstLoss: sim.GEParams{LossGood: 0.001}, Seed: 6}, 1400},
		{Config{Link: LinkATM, HashPCBs: true, LivePCBs: 8, Seed: 7}, 200},
	}
	var warm *Lab
	for i, tr := range trials {
		fresh := runEchoOn(t, New(tr.cfg), tr.size)
		if warm == nil {
			warm = New(tr.cfg)
		} else if err := warm.Reset(tr.cfg, 0); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		reused := runEchoOn(t, warm, tr.size)
		if !reflect.DeepEqual(fresh.RTTs, reused.RTTs) {
			t.Fatalf("trial %d (%+v): RTTs diverge between fresh and reused testbed", i, tr.cfg)
		}
	}
}

// TestResetSeedOverride checks the runner.ApplySeed convention: a
// nonzero seed argument overrides cfg.Seed.
func TestResetSeedOverride(t *testing.T) {
	fresh := runEchoOn(t, New(Config{Link: LinkATM, Seed: 99}), 200)

	l := New(Config{Link: LinkATM, Seed: 1})
	runEchoOn(t, l, 80)
	if err := l.Reset(Config{Link: LinkATM, Seed: 7}, 99); err != nil {
		t.Fatal(err)
	}
	if l.Config.Seed != 99 {
		t.Fatalf("seed override not applied: config seed %d", l.Config.Seed)
	}
	reused := runEchoOn(t, l, 200)
	if !reflect.DeepEqual(fresh.RTTs, reused.RTTs) {
		t.Fatal("seed-overridden reuse diverges from fresh lab at that seed")
	}
}

// TestResetRejectsLinkChange pins the shape contract: the link kind is
// part of the topology, not the trial.
func TestResetRejectsLinkChange(t *testing.T) {
	l := New(Config{Link: LinkATM})
	runEchoOn(t, l, 4)
	if err := l.Reset(Config{Link: LinkEther}, 0); err == nil {
		t.Fatal("Reset accepted a link-kind change")
	}
}

// TestPoolLeakGate is the leak gate on clean runs: after every echo
// trial — TCP at sizes straddling the cluster threshold, UDP, with loss,
// across topologies — the gated run succeeds, every host's pool reports
// zero live headers and cluster pages, and the reset succeeds.
func TestPoolLeakGate(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		n      int
		size   int
		udp    bool
		faults sim.FaultSchedule
	}{
		{"atm-small", Config{Link: LinkATM, CheckLeaks: true, Seed: 1}, 2, 80, false, nil},
		{"atm-cluster", Config{Link: LinkATM, CheckLeaks: true, Seed: 2}, 2, 8000, false, nil},
		{"atm-loss", Config{Link: LinkATM, CheckLeaks: true, BurstLoss: sim.GEParams{LossGood: 0.002}, Seed: 3}, 2, 1400, false, nil},
		{"atm-corrupt", Config{Link: LinkATM, CheckLeaks: true, Seed: 4}, 2, 1400, false,
			append(flips(sim.FaultWireFlip, 3, 33*424), flips(sim.FaultControllerFlip, 3, 1440*8)...)},
		{"ether", Config{Link: LinkEther, CheckLeaks: true, Seed: 5}, 2, 1400, false, nil},
		{"udp", Config{Link: LinkATM, CheckLeaks: true, Seed: 6}, 2, 512, true, nil},
		{"atm-mesh", Config{Link: LinkATM, CheckLeaks: true, Seed: 7}, 4, 200, false, nil},
		{"live-pcbs", Config{Link: LinkATM, CheckLeaks: true, LivePCBs: 6, Seed: 8}, 2, 200, false, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewTopology(tc.cfg, tc.n)
			if err := l.ScheduleFaults(tc.faults); err != nil {
				t.Fatal(err)
			}
			var err error
			if tc.udp {
				_, err = l.RunUDPEcho(tc.size, 10, 2)
			} else {
				_, err = l.RunEcho(tc.size, 10, 2)
			}
			if err != nil {
				t.Fatal(err)
			}
			hdrs, pages := l.PoolLive()
			if hdrs != 0 || pages != 0 {
				t.Fatalf("trial left %d live mbuf headers and %d live cluster pages", hdrs, pages)
			}
			if err := l.Reset(tc.cfg, 0); err != nil {
				t.Fatalf("CheckLeaks reset failed: %v", err)
			}
		})
	}
}

// TestLeakGateFailsTheLeakingRun pins where the gate is checked: at the
// end of the run that leaked, so a single trial — or the last one on a
// warm testbed — is checked too. One header allocated inside the run and
// never freed fails the TCP and the UDP echo; without CheckLeaks the
// same run succeeds.
func TestLeakGateFailsTheLeakingRun(t *testing.T) {
	runs := []struct {
		name string
		run  func(*Lab) (*EchoResult, error)
	}{
		{"tcp", func(l *Lab) (*EchoResult, error) { return l.RunEcho(4, 2, 0) }},
		{"udp", func(l *Lab) (*EchoResult, error) { return l.RunUDPEcho(4, 2, 0) }},
	}
	for _, r := range runs {
		for _, gated := range []bool{true, false} {
			l := New(Config{Link: LinkATM, Seed: 1, CheckLeaks: gated})
			l.Env.At(sim.Microsecond, "leak", func() { l.Hosts[0].Kern.Pool.Alloc() })
			_, err := r.run(l)
			switch {
			case gated && (err == nil || !strings.Contains(err.Error(), "leaked 1 mbuf headers")):
				t.Errorf("%s: gated run with a leaked header returned %v, want the leak named", r.name, err)
			case !gated && err != nil:
				t.Errorf("%s: ungated run: %v", r.name, err)
			}
		}
	}
}
