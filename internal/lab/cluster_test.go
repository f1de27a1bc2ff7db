package lab

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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
	if got := c.HostShard(0); got != 0 {
		t.Errorf("host 0 on shard %d, want 0", got)
	}
	for i := 1; i < 5; i++ {
		if c.HostShard(i) == 0 {
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
// on the configuration (a qdisc moves the switch latency ahead of the
// stage point; the cost model sets the cell time and propagation): a
// Reset that kept the warm trial's lookahead runs a shard past a cell
// still in flight toward it.
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

// TestClusterGoroutineFootprint pins worker cost at O(shards): a run
// holds at most one worker goroutine per shard and has stopped them all
// when Run returns — no per-host or per-connection goroutines, and no
// leak across runs.
func TestClusterGoroutineFootprint(t *testing.T) {
	before := runtime.NumGoroutine()
	c := mustCluster(t, Config{Link: LinkATM, Seed: 1}, 9, 4)
	during := 0
	// Sample mid-run from inside a shard's event loop. The extra event is
	// simulation-inert (it only reads the goroutine count).
	c.Shards[1].Env.At(sim.Millisecond, "sample", func() {
		during = runtime.NumGoroutine()
	})
	clusterEcho(t, c, 1400)
	after := settledGoroutines(before + 2)

	if during == 0 {
		t.Fatal("mid-run sample never fired")
	}
	if during > before+c.NumShards()+2 {
		t.Errorf("goroutines during run: %d, want <= %d (before %d + %d shards + 2)",
			during, before+c.NumShards()+2, before, c.NumShards())
	}
	if after > before+2 {
		t.Errorf("goroutines after run: %d, want <= %d — workers leaked", after, before+2)
	}
}

// settledCluster builds a hub cluster and runs it once, retiring the
// service processes' spawn events — which sit at time zero in every
// shard, so that first run does hand windows off — and waits for its
// workers to leave the goroutine count.
func settledCluster(t *testing.T, nHosts, shards int) (c *Cluster, goroutines int) {
	t.Helper()
	goroutines = quietGoroutines()
	c = mustCluster(t, Config{Link: LinkATM, Seed: 1}, nHosts, shards)
	if c.NumShards() != shards {
		t.Fatalf("cluster has %d shards, want %d", c.NumShards(), shards)
	}
	c.Run()
	if n := settledGoroutines(goroutines); n != goroutines {
		t.Fatalf("%d goroutines after the warm-up run, %d before it", n, goroutines)
	}
	return c, goroutines
}

// settledGoroutines returns the goroutine count once it is at or below
// limit, or whatever it still is after several seconds. Run waits for its
// workers (workers.stop), but a goroutine that has signalled its
// WaitGroup is counted until the scheduler has finished retiring it, and
// on a loaded machine under the race detector that has been seen to take
// longer than 100 ms. The first good reading returns at once, so a pass
// costs nothing; a real leak never produces one and still fails, late.
func settledGoroutines(limit int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= limit || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// quietGoroutines returns the goroutine count once it has held still for
// 50 ms. A count read on entry may still include a worker of the test
// before this one (see settledGoroutines); when it does, and the warm-up
// run's own worker is as slow to retire, the warm-up reads "settled" one
// too high and every exact comparison after it fails by one.
func quietGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 50; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
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

// TestClusterSingleReleaseRunsInline pins the cheap side of Run's
// released-count selection: events alternating between two shards, two
// lookaheads apart, release exactly one shard a round, and the
// coordinator runs every such window itself — no hand-off, and not one
// goroutine more than before Run was called.
func TestClusterSingleReleaseRunsInline(t *testing.T) {
	c, goroutines := settledCluster(t, 3, 2)
	const n = 200
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
	before := c.RoundStats()
	c.Run()
	got := c.RoundStats()

	if d := got.Rounds - before.Rounds; d != n {
		t.Errorf("%d rounds for %d alternating events, want one each", d, n)
	}
	if d := got.Released[1] - before.Released[1]; d != n {
		t.Errorf("%d rounds released one shard, want %d", d, n)
	}
	if d := got.Inline - before.Inline; d != n {
		t.Errorf("coordinator ran %d windows, want %d", d, n)
	}
	if d := got.Handoffs - before.Handoffs; d != 0 {
		t.Errorf("%d hand-offs in a run that never released two shards, want 0", d)
	}
	if extra != 0 {
		t.Errorf("%d of %d events saw extra goroutines during Run", extra, n)
	}
}

// TestClusterMultiReleaseHandsOff pins the other side: simultaneous
// events in two non-server shards release both every round, so one
// window goes to a worker and one stays with the coordinator — and the
// idle server shard is never woken.
func TestClusterMultiReleaseHandsOff(t *testing.T) {
	c, _ := settledCluster(t, 3, 3)
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
	before := c.RoundStats()
	c.Run()
	got := c.RoundStats()

	if ran != [3]int{0, n, n} {
		t.Fatalf("events run per shard: %v, want [0 %d %d]", ran, n, n)
	}
	if d := got.Released[2] - before.Released[2]; d != n {
		t.Errorf("%d rounds released two shards, want %d", d, n)
	}
	if d := got.Handoffs - before.Handoffs; d != n {
		t.Errorf("%d hand-offs, want %d (one of each round's two windows)", d, n)
	}
	if d := got.Inline - before.Inline; d != n {
		t.Errorf("coordinator ran %d windows, want %d", d, n)
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
	c, _ := settledCluster(t, 3, 2)
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
	if st := c.RoundStats(); st.CellsStaged != 102 {
		t.Errorf("CellsStaged = %d, want the 102 staged here", st.CellsStaged)
	}
}

// TestScheduleFaultsRefuses pins what ScheduleFaults turns away before
// anything is scheduled: an event sim's Validate refuses (an unknown kind,
// a negative bit), a bit flip on a host with no ATM link, and a bit flip
// above one shard.
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
		{"wire flip, sharded", LinkATM, 4, 2, sim.FaultEvent{Kind: sim.FaultWireFlip}, "sharded execution accepts only link-flip faults"},
		{"controller flip, sharded", LinkATM, 4, 2, sim.FaultEvent{Kind: sim.FaultControllerFlip}, "sharded execution accepts only link-flip faults"},
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
}
