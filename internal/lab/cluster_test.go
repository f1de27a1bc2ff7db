package lab

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/cost"
	"repro/internal/sim"
)

// mustCluster builds a cluster or fails the test.
func mustCluster(t *testing.T, cfg Config, nHosts, shards int) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg, nHosts, shards)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// clusterEcho runs the echo benchmark on a cluster and returns the
// result; any error fails the test.
func clusterEcho(t *testing.T, c *Cluster, size int) *EchoResult {
	t.Helper()
	res, err := c.Lab.RunEcho(size, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterGates pins the configurations sharded execution refuses:
// Ethernet, a loss chain, and peer-host state mutated directly. (The
// corruption knobs draw per-link and per-host streams and shard;
// TestValidate's sharded rows hold NewCluster to that.)
func TestClusterGates(t *testing.T) {
	bad := []Config{
		{Link: LinkEther},
		{Link: LinkATM, BurstLoss: sim.GEParams{LossGood: 0.01}},
		{Link: LinkATM, LivePCBs: 5},
	}
	for i, cfg := range bad {
		if _, err := NewCluster(cfg, 4, 2); err == nil {
			t.Errorf("case %d: NewCluster accepted gated config %+v", i, cfg)
		}
	}
	if _, err := NewCluster(Config{Link: LinkATM}, 4, 0); err == nil {
		t.Error("NewCluster accepted 0 shards")
	}
}

// TestClusterClamps pins the degenerate shapes: a two-host lab is
// switchless (one unit — nothing to cut), and the shard count clamps to
// the number of partition units.
func TestClusterClamps(t *testing.T) {
	if c := mustCluster(t, Config{Link: LinkATM}, 2, 8); c.NumShards() != 1 {
		t.Errorf("2-host cluster has %d shards, want 1", c.NumShards())
	}
	// 5 hosts on a hub = 5 units; requesting more shards clamps.
	if c := mustCluster(t, Config{Link: LinkATM}, 5, 64); c.NumShards() != 5 {
		t.Errorf("5-host hub cluster has %d shards, want clamp to 5", c.NumShards())
	}
	// Host 0 always lives alone on shard 0.
	c := mustCluster(t, Config{Link: LinkATM}, 5, 3)
	if got := c.hostShard[0]; got != 0 {
		t.Errorf("host 0 on shard %d, want 0", got)
	}
	for i := 1; i < 5; i++ {
		if c.hostShard[i] == 0 {
			t.Errorf("client host %d shares shard 0 with the server", i)
		}
	}
}

// TestClusterEchoBitIdentity is the tentpole contract at the lab layer:
// the sharded echo benchmark reproduces the serial run exactly — every
// RTT, every kernel window, every traced packet event.
func TestClusterEchoBitIdentity(t *testing.T) {
	cfg := Config{Link: LinkATM, PacketTrace: true, Seed: 1994}
	serialLab := NewTopology(cfg, 3)
	serial := runEchoOn(t, serialLab, 1400)
	serialEvents := serialLab.PacketEvents()

	for _, shards := range []int{2, 3} {
		c := mustCluster(t, cfg, 3, shards)
		if c.NumShards() < 2 {
			t.Fatalf("shards=%d degenerated to serial", shards)
		}
		got := clusterEcho(t, c, 1400)
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("shards=%d: echo result diverged from serial", shards)
		}
		if ev := c.Lab.PacketEvents(); !reflect.DeepEqual(ev, serialEvents) {
			t.Errorf("shards=%d: packet events diverged from serial (%d vs %d events)",
				shards, len(ev), len(serialEvents))
		}
	}
}

// TestClusterUDPEchoBitIdentity: the UDP echo runs on the cluster like
// the TCP one — the server on its own host's loop, every loop driven by
// the barrier — so a sharded run reproduces the serial one, trace
// included, and leaves the cluster ready to Reset.
func TestClusterUDPEchoBitIdentity(t *testing.T) {
	cfg := Config{Link: LinkATM, PacketTrace: true, Seed: 1}
	serialLab := NewTopology(cfg, 3)
	serial, err := serialLab.RunUDPEcho(200, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	serialEvents := serialLab.PacketEvents()
	if len(serialEvents) == 0 {
		t.Fatal("traced UDP echo reported no events")
	}
	for _, shards := range []int{2, 3} {
		c := mustCluster(t, cfg, 3, shards)
		if c.NumShards() < 2 {
			t.Fatalf("shards=%d degenerated to serial", shards)
		}
		got, err := c.Lab.RunUDPEcho(200, 5, 1)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("shards=%d: UDP echo result diverged from serial", shards)
		}
		if ev := c.Lab.PacketEvents(); !reflect.DeepEqual(ev, serialEvents) {
			t.Errorf("shards=%d: packet events diverged from serial (%d vs %d events)",
				shards, len(ev), len(serialEvents))
		}
		if err := c.Reset(cfg, 0); err != nil {
			t.Errorf("shards=%d: Reset after a UDP echo: %v", shards, err)
		}
	}
}

// TestClusterResetBitIdentity is the sharded testbed-reuse contract: a
// cluster warmed on a different trial and Reset to a new configuration
// must reproduce a freshly built cluster AND the serial lab byte for byte
// — same RTTs, same trace — just like TestResetBitIdentical pins for
// serial labs. The fat-tree cells are the regime whose lookahead depends
// on the configuration (the cost model sets the cell time and
// propagation): a Reset that kept the warm trial's lookahead runs a shard
// past a cell still in flight toward it; the qdisc cells hold that a
// discipline moves nothing. DRR runs on one shard only: a reset to it is
// refused, and so is a fresh build.
func TestClusterResetBitIdentity(t *testing.T) {
	slowFiber := *cost.DECstation5000()
	slowFiber.ATMPropagation *= 3
	slowFiber.ATMLinkBitsPS /= 2
	fatTree := func(q QdiscKind, m *cost.Model, seed uint64) Config {
		// Echo uses hosts 0 and 1 only; one port per leaf puts them on
		// different leaves, so every round trip crosses a cut trunk.
		return Config{Link: LinkATM, PacketTrace: true, Fabric: FabricFatTree, LeafPorts: 1,
			Qdisc: QdiscConfig{Kind: q}, Cost: m, Seed: seed}
	}
	cases := []struct {
		name          string
		warmCfg, cfg  Config
		hosts, shards int
	}{
		{"hub", Config{Link: LinkATM, PacketTrace: true, SockBuf: 4096, Seed: 3},
			Config{Link: LinkATM, PacketTrace: true, Seed: 7}, 4, 3},
		{"fattree-to-droptail", fatTree(QdiscNone, nil, 3), fatTree(QdiscDropTail, nil, 7), 9, 4},
		{"fattree-to-red", fatTree(QdiscNone, nil, 3), fatTree(QdiscRED, nil, 7), 9, 4},
		{"fattree-to-drr", fatTree(QdiscNone, nil, 3), fatTree(QdiscDRR, nil, 7), 9, 4},
		{"fattree-from-droptail", fatTree(QdiscDropTail, nil, 3), fatTree(QdiscNone, nil, 7), 9, 4},
		{"fattree-to-slow-fiber", fatTree(QdiscNone, nil, 3), fatTree(QdiscNone, &slowFiber, 7), 9, 4},
		{"fattree-from-slow-fiber", fatTree(QdiscNone, &slowFiber, 3), fatTree(QdiscNone, nil, 7), 9, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.Qdisc.Kind == QdiscDRR {
				var ce *ConfigError
				if _, err := NewCluster(tc.cfg, tc.hosts, tc.shards); !errors.As(err, &ce) || ce.Field != "Qdisc.Kind" {
					t.Errorf("NewCluster under DRR on %d shards: %v, want a refusal naming Qdisc.Kind", tc.shards, err)
				}
				c := mustCluster(t, tc.warmCfg, tc.hosts, tc.shards)
				clusterEcho(t, c, 200)
				if err := c.Reset(tc.cfg, 0); !errors.As(err, &ce) || ce.Field != "Qdisc.Kind" {
					t.Errorf("Cluster.Reset to DRR on %d shards: %v, want a refusal naming Qdisc.Kind", tc.shards, err)
				}
				return
			}
			serialLab := NewTopology(tc.cfg, tc.hosts)
			serial := runEchoOn(t, serialLab, 1400)
			serialEvents := serialLab.PacketEvents()

			freshC := mustCluster(t, tc.cfg, tc.hosts, tc.shards)
			if freshC.NumShards() != tc.shards {
				t.Fatalf("fresh cluster has %d shards, want %d", freshC.NumShards(), tc.shards)
			}
			if fresh := clusterEcho(t, freshC, 1400); !reflect.DeepEqual(fresh, serial) {
				t.Error("fresh cluster diverged from the serial lab")
			}

			c := mustCluster(t, tc.warmCfg, tc.hosts, tc.shards)
			clusterEcho(t, c, 200)
			if err := c.Reset(tc.cfg, 0); err != nil {
				t.Fatalf("Cluster.Reset: %v", err)
			}
			if got, want := c.Lookahead(), freshC.Lookahead(); got != want {
				t.Errorf("reset cluster's lookahead is %v, a fresh build's %v", got, want)
			}
			if reused := clusterEcho(t, c, 1400); !reflect.DeepEqual(reused, serial) {
				t.Error("reused cluster diverged from the fresh cluster and the serial lab")
			}
			if ev := c.Lab.PacketEvents(); !reflect.DeepEqual(ev, serialEvents) {
				t.Errorf("reused cluster's packet events diverged from serial (%d vs %d events)",
					len(ev), len(serialEvents))
			}
		})
	}
}

// TestFatTreeLookaheadIsOneRule: a sharded fat tree's lookahead is the
// switch's forwarding latency plus one cell serialization plus
// propagation under every discipline that shards — a cut trunk stages its
// cell at forward time under each — and a hub's, whose cut host links
// pay no switch latency first, is the cell and propagation alone.
func TestFatTreeLookaheadIsOneRule(t *testing.T) {
	model := cost.DECstation5000()
	cell := cost.WireTime(atm.CellSize, model.ATMLinkBitsPS) + model.ATMPropagation
	for _, q := range []QdiscKind{QdiscNone, QdiscDropTail, QdiscRED} {
		for _, fabric := range []FabricKind{FabricHub, FabricFatTree} {
			cfg := Config{Link: LinkATM, Fabric: fabric, Qdisc: QdiscConfig{Kind: q}}
			if fabric == FabricFatTree {
				cfg.LeafPorts = 2
			}
			c := mustCluster(t, cfg, 9, 3)
			want := cell
			if fabric == FabricFatTree {
				want += c.Lab.Switch.Latency
			}
			if got := c.Lookahead(); got != want {
				t.Errorf("%v, %v: lookahead %v, want %v", fabric, q, got, want)
			}
		}
	}
}

// TestLabResetRewindsEveryShard pins Lab.Reset as the cluster's Reset: a
// 2-shard testbed reset through its Lab rewinds both event loops, not
// only shard 0's, and so reproduces a freshly built cluster — same RTTs,
// same trace. (It used to refuse, pointing callers at Cluster.Reset.)
func TestLabResetRewindsEveryShard(t *testing.T) {
	cfg := Config{Link: LinkATM, PacketTrace: true, Seed: 9}
	freshC := mustCluster(t, cfg, 4, 2)
	fresh := clusterEcho(t, freshC, 1400)

	c := mustCluster(t, Config{Link: LinkATM, SockBuf: 4096, Seed: 5}, 4, 2)
	clusterEcho(t, c, 200)
	if err := c.Lab.Reset(cfg, 0); err != nil {
		t.Fatalf("Lab.Reset on a 2-shard cluster's lab: %v", err)
	}
	for s, sh := range c.Shards {
		if now := sh.Env.Now(); now != 0 {
			t.Errorf("shard %d's clock reads %v after Lab.Reset, want 0", s, now)
		}
	}
	if reused := clusterEcho(t, c, 1400); !reflect.DeepEqual(reused, fresh) {
		t.Error("cluster reset through Lab.Reset diverged from a fresh cluster")
	}
	if !reflect.DeepEqual(c.Lab.PacketEvents(), freshC.Lab.PacketEvents()) {
		t.Error("packet events diverged from a fresh cluster after Lab.Reset")
	}
}

// settledCluster builds a hub cluster and runs it once, retiring the
// service processes' spawn events, which sit at time zero in every shard.
func settledCluster(t *testing.T, nHosts, shards int) *Cluster {
	t.Helper()
	c := mustCluster(t, Config{Link: LinkATM, Seed: 1}, nHosts, shards)
	if c.NumShards() != shards {
		t.Fatalf("cluster has %d shards, want %d", c.NumShards(), shards)
	}
	c.Run()
	return c
}

// latestNow is the furthest any shard's clock has advanced.
func latestNow(c *Cluster) sim.Time {
	var at sim.Time
	for _, sh := range c.Shards {
		if t := sh.Env.Now(); t > at {
			at = t
		}
	}
	return at
}

// TestClusterGoroutineFootprint pins where a round runs: on Run's
// caller's goroutine. Simultaneous events in both shards of a 2-shard
// cluster release both windows in one round, and both fire with the
// goroutine count what it was before Run — no window is handed to
// another goroutine.
func TestClusterGoroutineFootprint(t *testing.T) {
	c := settledCluster(t, 3, 2)
	at := latestNow(c) + 2*c.Lookahead()
	var ran [2]int
	var during [2]int
	for s := range c.Shards {
		s := s
		c.Shards[s].Env.At(at, "both", func() {
			ran[s]++
			during[s] = runtime.NumGoroutine()
		})
	}
	rounds := c.Rounds()
	before := runtime.NumGoroutine()
	c.Run()

	if ran != [2]int{1, 1} {
		t.Fatalf("events run per shard: %v, want [1 1]", ran)
	}
	if d := c.Rounds() - rounds; d != 1 {
		t.Errorf("%d rounds for one instant in both shards, want 1", d)
	}
	if during != [2]int{before, before} {
		t.Errorf("goroutines inside the windows: %v, want %d in each (as before Run)", during, before)
	}
}

// TestClusterMultiReleaseHandsOff pins a round that releases several
// shards: simultaneous events in the two client shards of a 3-shard
// cluster release both every round, one window handed to each shard in
// turn, and the idle server shard is never woken.
func TestClusterMultiReleaseHandsOff(t *testing.T) {
	c := settledCluster(t, 3, 3)
	const n = 50
	ran := [3]int{}
	at := latestNow(c)
	for i := 0; i < n; i++ {
		at += 2 * c.Lookahead()
		for _, s := range []int{1, 2} {
			s := s
			c.Shards[s].Env.At(at, "both", func() { ran[s]++ })
		}
	}
	server := c.Shards[0].Env
	fired, now := server.Fired(), server.Now()
	rounds := c.Rounds()
	c.Run()

	if ran != [3]int{0, n, n} {
		t.Fatalf("events run per shard: %v, want [0 %d %d]", ran, n, n)
	}
	if d := c.Rounds() - rounds; d != n {
		t.Errorf("%d rounds for %d instants in both client shards, want one each", d, n)
	}
	if d := server.Fired() - fired; d != 0 {
		t.Errorf("idle server shard fired %d events, want 0", d)
	}
	if server.Now() != now {
		t.Errorf("idle server shard's clock moved from %v to %v", now, server.Now())
	}
}

// TestClusterSingleReleaseRunsInline pins the cheap side of a round:
// events alternating between two shards, two lookaheads apart, make one
// round each, and not one goroutine more than before Run was called.
func TestClusterSingleReleaseRunsInline(t *testing.T) {
	c := settledCluster(t, 3, 2)
	const n = 200
	goroutines := runtime.NumGoroutine()
	extra := 0
	sample := func() {
		if g := runtime.NumGoroutine(); g != goroutines {
			extra++
		}
	}
	at := latestNow(c)
	for i := 0; i < n; i++ {
		at += 2 * c.Lookahead()
		c.Shards[i%2].Env.At(at, "pingpong", sample)
	}
	before := c.Rounds()
	c.Run()

	if d := c.Rounds() - before; d != n {
		t.Errorf("%d rounds for %d alternating events, want one each", d, n)
	}
	if extra != 0 {
		t.Errorf("%d of %d events saw extra goroutines during Run", extra, n)
	}
}

// countingDest is a cell destination that only counts deliveries.
type countingDest struct{ cells int }

func (d *countingDest) InjectCell(atm.Cell) { d.cells++ }

// TestClusterInjectPathAllocatesNothing pins the steady-state cost of a
// crossing cell — stage, barrier, inject, fire, slot freed — at zero
// allocations: the arrival event carries an inbox slot index through a
// callback bound once per shard, not a closure per cell.
func TestClusterInjectPathAllocatesNothing(t *testing.T) {
	c := settledCluster(t, 3, 2)
	dest := &countingDest{}
	at := latestNow(c)
	cross := func() {
		at += 2 * c.Lookahead()
		c.stageCell(0, 1, at-c.Lookahead(), at, dest, atm.Cell{})
		c.Run()
	}
	cross() // grow the buffers once
	if allocs := testing.AllocsPerRun(100, cross); allocs != 0 {
		t.Errorf("%.1f allocations per crossing cell, want 0", allocs)
	}
	if dest.cells != 102 { // the warm-up, AllocsPerRun's own, and its 100
		t.Errorf("%d cells delivered, want 102", dest.cells)
	}
	in := &c.inbox[1]
	if len(in.slots) != 1 || len(in.free) != 1 {
		t.Errorf("inbox after the run: %d slots, %d free, want the one slot reused and free",
			len(in.slots), len(in.free))
	}
	if c.cellsStaged != 102 {
		t.Errorf("%d cells staged, want the 102 staged here", c.cellsStaged)
	}
}

// TestScheduleFaultsRefuses pins what ScheduleFaults turns away before
// anything is scheduled: an event sim's Validate refuses (an unknown kind,
// a negative bit), a bit flip on a host with no ATM link, and any fault
// above one shard, where only an empty schedule is accepted.
func TestScheduleFaultsRefuses(t *testing.T) {
	rows := []struct {
		name          string
		link          LinkKind
		hosts, shards int
		ev            sim.FaultEvent
		refusal       string // "" accepts
	}{
		{"unknown kind", LinkATM, 2, 1, sim.FaultEvent{Kind: sim.FaultControllerFlip + 1}, "unknown fault kind"},
		{"negative bit", LinkATM, 2, 1, sim.FaultEvent{Kind: sim.FaultWireFlip, Bit: -1}, "negative bit"},
		{"wire flip on Ethernet", LinkEther, 2, 1, sim.FaultEvent{Kind: sim.FaultWireFlip}, "no ATM link"},
		{"controller flip on Ethernet", LinkEther, 2, 1, sim.FaultEvent{Kind: sim.FaultControllerFlip}, "no ATM link"},
		{"wire flip, sharded", LinkATM, 4, 2, sim.FaultEvent{Kind: sim.FaultWireFlip}, "runs no faults"},
		{"controller flip, sharded", LinkATM, 4, 2, sim.FaultEvent{Kind: sim.FaultControllerFlip}, "runs no faults"},
		{"link down, sharded", LinkATM, 4, 2, sim.FaultEvent{Kind: sim.FaultLinkDown, Host: 1}, "runs no faults"},
		{"link up, sharded", LinkATM, 4, 2, sim.FaultEvent{Kind: sim.FaultLinkUp, Host: 1}, "runs no faults"},
		{"link down", LinkATM, 4, 1, sim.FaultEvent{Kind: sim.FaultLinkDown, Host: 1}, ""},
		{"wire flip", LinkATM, 2, 1, sim.FaultEvent{Kind: sim.FaultWireFlip, Bit: 1 << 20}, ""},
		{"controller flip behind a hub", LinkATM, 4, 1, sim.FaultEvent{Kind: sim.FaultControllerFlip, Host: 3}, ""},
	}
	for _, r := range rows {
		c, err := NewCluster(Config{Link: r.link}, r.hosts, r.shards)
		if err != nil {
			t.Fatal(err)
		}
		err = c.ScheduleFaults(sim.FaultSchedule{r.ev})
		switch {
		case r.refusal == "" && err != nil:
			t.Errorf("%s: refused: %v", r.name, err)
		case r.refusal != "" && (err == nil || !strings.Contains(err.Error(), r.refusal)):
			t.Errorf("%s: got %v, want a refusal naming %q", r.name, err, r.refusal)
		}
	}
	if err := mustCluster(t, Config{Link: LinkATM}, 4, 2).ScheduleFaults(nil); err != nil {
		t.Errorf("an empty schedule on 2 shards: %v", err)
	}
}
