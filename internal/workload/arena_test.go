package workload_test

import (
	"encoding/json"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// arenaState sums the buffers checked out of every loop's arena and the
// receive channels part-way through a frame — on a drained testbed the
// only legitimate holders.
func arenaState(l *lab.Lab) (out, reassembling int) {
	for _, sh := range l.Cluster().Shards {
		out += sh.Env.Arena().Outstanding()
	}
	for _, h := range l.Hosts {
		if h.ATMDriver != nil {
			reassembling += h.ATMDriver.Reassembling()
		}
	}
	return out, reassembling
}

// checkEtherLedger is Ethernet's conservation law on a drained lab (a
// no-op on ATM): every frame sent was received or dropped for exactly one
// counted cause, and every frame an adapter received its driver passed up
// or rejected.
func checkEtherLedger(t *testing.T, name string, l *lab.Lab) {
	t.Helper()
	if l.Segment == nil {
		return
	}
	var sent, ended int64
	for i, h := range l.Hosts {
		a, d := h.EthAdapter, h.EthDriver
		sent += a.FramesSent
		ended += a.FramesRecv + a.Filtered + a.GEDrops + a.LossDrops + a.DownDrops
		if d.FramesIn+d.FCSErrors != a.FramesRecv {
			t.Errorf("%s, %s: adapter received %d frames, driver passed up %d and rejected %d",
				name, lab.HostName(i), a.FramesRecv, d.FramesIn, d.FCSErrors)
		}
	}
	if ended += l.Segment.UnknownUnicasts; sent != ended {
		t.Errorf("%s: %d frames sent, %d received or dropped for a counted cause", name, sent, ended)
	}
}

// scratchTrial is one run for the arena tests: a generator on a topology
// at a shard count, with every loop's use-after-return tripwire armed or
// not, returning the lab and the result as JSON.
func scratchTrial(t *testing.T, g workload.Generator, cfg lab.Config, hosts, shards int, poison bool) (*lab.Lab, string) {
	t.Helper()
	c, err := lab.NewCluster(cfg, hosts, shards)
	if err != nil {
		t.Fatal(err)
	}
	if poison {
		for _, sh := range c.Shards {
			sh.Env.Arena().Poison = true
		}
	}
	res, err := g.Run(c.Lab)
	if err != nil {
		t.Fatalf("%s on %d hosts, %d shards: %v", g.Name(), hosts, shards, err)
	}
	b, _ := json.Marshal(res)
	return c.Lab, string(b)
}

// arenaTrials are the runs both tests below share: each generator and
// transport on both fabrics, the 10k benchmark's staggered streaming
// shape in miniature, then the congested tier and the fault tier, then
// the shared Ethernet segment, whose frames are checkouts too — clean,
// under burst loss, and through a crash that downs the server's station.
// Last, the runs in which something keeps a cell past the call that
// delivered it — a pointer into the sender's transmit queue, overwritten
// under Poison the moment that call returns: cells held back for
// reordering, link-noise bit flips (which land in the sender's record),
// RED and DRR queues under overflow, serial and behind a cut, and links
// that go dark mid-frame, serial and sharded.
var arenaTrials = []struct {
	name     string
	g        workload.Generator
	cfg      lab.Config
	hosts    int
	lossFree bool // and, on ATM, run on four shards as well
	cut      bool // lossy, but shard-safe: run on four shards as well
}{
	{"echo", workload.Echo{Size: 8000, Iterations: 6, Warmup: 1}, lab.Config{Link: lab.LinkATM}, 3, true, false},
	{"fan-in, hub", workload.FanIn{Requests: 4, Size: 200}, lab.Config{Link: lab.LinkATM, PacketTrace: true}, 9, true, false},
	{"fan-in, staggered fat tree", workload.FanIn{Requests: 1, Size: 207, Stagger: 5000 * sim.Microsecond, Stats: stats.Config{Streaming: true}},
		lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, LeafPorts: 4, HashPCBs: true}, 33, true, false},
	{"fan-in, rudp", workload.FanIn{Requests: 4, Size: 200, Transport: workload.TransportRUDP},
		lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, LeafPorts: 2}, 7, true, false},
	{"churn", workload.Churn{Conns: 3, Size: 64}, lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, LeafPorts: 2}, 7, true, false},
	{"bulk", workload.Bulk{Bytes: 65536}, lab.Config{Link: lab.LinkATM}, 2, true, false},
	{"bulk, congested hub", workload.Bulk{Bytes: 32768}, lab.Config{Link: lab.LinkATM}, 5, true, false},
	{"loaded fan-in", workload.FanIn{Requests: 5, Size: 200, Cross: &workload.CrossTraffic{Flows: 2, Transfers: 2, MaxBytes: 32768}},
		loadedConfig(9), 5, false, false},
	{"loaded fan-in, rudp, DRR", workload.FanIn{Requests: 4, Size: 200, Transport: workload.TransportRUDP},
		lab.Config{Link: lab.LinkATM, Qdisc: lab.QdiscConfig{Kind: lab.QdiscDRR},
			BurstLoss: sim.GEParams{PGoodBad: 0.005, PBadGood: 0.2, LossBad: 0.6}}, 4, false, false},
	{"server crash and restart", workload.FaultRecovery{Requests: 8, Interval: 100 * sim.Millisecond,
		CrashAt: 250 * sim.Millisecond, Downtime: sim.Second}, lab.Config{Link: lab.LinkATM, CheckLeaks: true}, 5, false, false},
	{"server crash and restart, rudp", workload.FaultRecovery{Transport: workload.TransportRUDP, Requests: 8,
		Interval: 100 * sim.Millisecond, CrashAt: 250 * sim.Millisecond, Downtime: sim.Second},
		lab.Config{Link: lab.LinkATM, CheckLeaks: true}, 5, false, false},
	{"echo, ether", workload.Echo{Size: 8000, Iterations: 6, Warmup: 1}, lab.Config{Link: lab.LinkEther}, 3, true, false},
	{"fan-in, ether segment", workload.FanIn{Requests: 4, Size: 200}, lab.Config{Link: lab.LinkEther, PacketTrace: true}, 5, true, false},
	{"fan-in, rudp, ether", workload.FanIn{Requests: 4, Size: 200, Transport: workload.TransportRUDP}, lab.Config{Link: lab.LinkEther}, 4, true, false},
	{"bulk, ether", workload.Bulk{Bytes: 65536}, lab.Config{Link: lab.LinkEther}, 2, true, false},
	{"fan-in, ether, burst loss", workload.FanIn{Requests: 6, Size: 1400},
		lab.Config{Link: lab.LinkEther, BurstLoss: sim.GEParams{PGoodBad: 0.03, PBadGood: 0.3, LossBad: 0.7}}, 4, false, false},
	{"server crash and restart, ether", workload.FaultRecovery{Requests: 8, Interval: 100 * sim.Millisecond,
		CrashAt: 250 * sim.Millisecond, Downtime: sim.Second}, lab.Config{Link: lab.LinkEther, CheckLeaks: true}, 5, false, false},
	{name: "bulk, reordering", g: workload.Bulk{Bytes: 65536}, hosts: 3,
		cfg: lab.Config{Link: lab.LinkATM, MTU: 1500, ReorderRate: 0.01, ReorderDepth: 4}},
	{name: "bulk, cell corruption", g: workload.Bulk{Bytes: 65536}, hosts: 3,
		cfg: lab.Config{Link: lab.LinkATM, MTU: 1500, CellCorruptRate: 0.006}},
	{name: "bulk, RED hub under overflow", g: workload.Bulk{Bytes: 49152}, hosts: 5, cut: true,
		cfg: lab.Config{Link: lab.LinkATM, Qdisc: lab.QdiscConfig{Kind: lab.QdiscRED, LimitCells: 96}}},
	{name: "bulk, DRR hub under overflow", g: workload.Bulk{Bytes: 49152}, hosts: 5, cut: true,
		cfg: lab.Config{Link: lab.LinkATM, Qdisc: lab.QdiscConfig{Kind: lab.QdiscDRR, LimitCells: 96}}},
	{name: "fan-in, link flaps", hosts: 5, cut: true, cfg: lab.Config{Link: lab.LinkATM},
		g: workload.FanIn{Requests: 20, Size: 1400, Faults: sim.LinkFlaps(7, []int{0, 2}, 8, 20*sim.Millisecond, 300*sim.Microsecond)}},
}

// shardCounts are the shard counts a trial runs at: the fault knobs run
// serial only, and Ethernet is one broadcast domain.
func shardCounts(cfg lab.Config, shardSafe bool) []int {
	if !shardSafe || cfg.Link != lab.LinkATM {
		return []int{1}
	}
	return []int{1, 4}
}

// TestArenaDrainsToZero is the checkout rule over the workload
// generators. Every loss-free run, serial and on four shards, ends with
// no buffer checked out of any loop's arena. The congested and the fault
// tier may end with frames stuck mid-reassembly — burst loss took a
// frame's last cells, the crash cut one off — and then exactly those are
// outstanding; in every case Lab.Reset succeeds and leaves zero, with
// the mbuf leak gate armed where the trial arms it.
func TestArenaDrainsToZero(t *testing.T) {
	for _, tc := range arenaTrials {
		for _, shards := range shardCounts(tc.cfg, tc.lossFree || tc.cut) {
			cfg := tc.cfg
			cfg.Seed = 1994
			l, _ := scratchTrial(t, tc.g, cfg, tc.hosts, shards, true)
			checkEtherLedger(t, tc.name, l)
			out, open := arenaState(l)
			if out != open {
				t.Errorf("%s, %d shards: drained with %d buffers checked out but %d frames mid-reassembly", tc.name, shards, out, open)
			}
			if tc.lossFree && out != 0 {
				t.Errorf("%s, %d shards: a loss-free run ended with %d buffers checked out", tc.name, shards, out)
			}
			if err := l.Reset(cfg, 0); err != nil {
				t.Errorf("%s, %d shards: Reset: %v", tc.name, shards, err)
				continue
			}
			if out, open := arenaState(l); out != 0 || open != 0 {
				t.Errorf("%s, %d shards: after Reset %d buffers checked out, %d frames open", tc.name, shards, out, open)
			}
		}
	}
}

// TestReleasedScratchIsPoisoned reruns every trial with each loop's
// arena overwriting a buffer the moment it is given back, and requires
// the result — every latency, counter and traced packet event — to match
// the plain run byte for byte, serial and sharded. Anything that read a
// reassembly buffer, a PDU or a queue's storage after returning it would
// now read 0xDB: a payload mismatch, a checksum failure, a lost cell. The
// sharded-identity fuzzer's seed corpus runs the same way.
func TestReleasedScratchIsPoisoned(t *testing.T) {
	for _, tc := range arenaTrials {
		cfg := tc.cfg
		cfg.Seed = 7
		_, want := scratchTrial(t, tc.g, cfg, tc.hosts, 1, false)
		for _, shards := range shardCounts(tc.cfg, tc.lossFree || tc.cut) {
			if _, got := scratchTrial(t, tc.g, cfg, tc.hosts, shards, true); got != want {
				t.Errorf("%s, %d shards: the poisoned run diverged\n plain:    %.300s\n poisoned: %.300s", tc.name, shards, want, got)
			}
		}
	}
	for _, s := range shardedFuzzSeeds {
		g, cfg, n := fuzzTrial(s.fabric, s.leafPorts, s.hosts, s.wl, s.seed)
		_, want := scratchTrial(t, g, cfg, n, 1, false)
		if _, got := scratchTrial(t, g, cfg, n, 1+int(s.shards%8), true); got != want {
			t.Errorf("fuzz seed %+v: the poisoned sharded run diverged from the plain serial one", s)
		}
	}
}

// TestParkedHoldersDoNotBlockReset runs, on one reused testbed, a server
// crash mid-run and then a loaded trial whose cross flow stalls behind a
// lost window update (the stack has no persist timer; this seed strands
// chains in the flow's send buffer), and resets the lab after each, as
// the sweep runner reuses a testbed. The stalled flow's source and the
// server's sink for it stay parked for good, each holding a workload
// buffer. Those are the loop arena's uncounted Get/Put, so the reset
// goes through; taken as counted checkouts, they make it refuse to rewind
// the loop.
func TestParkedHoldersDoNotBlockReset(t *testing.T) {
	const hosts = 9
	crash := lab.Config{Link: lab.LinkATM, Seed: 1994}
	l := lab.NewTopology(crash, hosts)
	g := workload.FaultRecovery{Requests: 8, Interval: 100 * sim.Millisecond, CrashAt: 250 * sim.Millisecond, Downtime: sim.Second}
	res, err := g.Run(l)
	if err != nil {
		t.Fatalf("crash trial: %v", err)
	}
	if len(res.Recoveries) == 0 {
		t.Fatal("crash trial: no client saw the outage")
	}
	if err := l.Reset(crash, 0); err != nil {
		t.Fatalf("Reset after the crash trial: %v", err)
	}

	stall := loadedConfig(1)
	stall.PacketTrace = false
	stall.Qdisc.REDMinCells, stall.Qdisc.REDMaxCells, stall.Qdisc.REDMaxP = 2, 256, 0.5
	if err := l.Reset(stall, 0); err != nil {
		t.Fatalf("Reset to the loaded trial: %v", err)
	}
	fan := workload.FanIn{Size: 200, Requests: 8, Warmup: 1, Cross: &workload.CrossTraffic{Flows: 2, MinBytes: 32768}}
	if _, err := fan.Run(l); err != nil {
		t.Fatalf("loaded trial: %v", err)
	}
	if hdrs, pages := l.PoolLive(); hdrs == 0 && pages == 0 {
		t.Fatal("loaded trial: no cross flow stalled; the test needs a seed that strands one")
	}
	if err := l.Reset(stall, 0); err != nil {
		t.Fatalf("Reset after the stalled trial: %v", err)
	}
	if out, open := arenaState(l); out != 0 || open != 0 {
		t.Errorf("after the resets %d buffers checked out, %d frames open", out, open)
	}
}
