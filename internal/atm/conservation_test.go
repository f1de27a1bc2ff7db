package atm_test

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cellLedger is the ATM layer's conservation law on a drained testbed,
// written out once: check is the only place the equation appears. Every
// cell put on a fiber — by a host's adapter, or by a test injecting it
// straight into one (injected) — ends as exactly one of: admitted to a
// host's receive FIFO, dropped at an adapter (wire loss, burst loss, link
// down, DropNext, FIFO overflow: all CellsDropped), dropped in a switch
// (no route, egress queue or discipline full, bad HEC, ingress port down),
// or still queued in a discipline. Switch hops cancel out: a forwarded
// cell is neither created nor ended by the switch that forwards it. Per
// driver, every cell that left the receive FIFO was either discarded for
// a bad HEC or handed to a reassembler, once. And no transmitter, an
// adapter's or a switch port's, still holds a cell short of its far end:
// a switchless pair's quiet arrivals (Adapter.LaunchTx) have all been
// received by the time the loop runs dry.
type cellLedger struct {
	injected int64
	drivers  []*atm.Driver
	switches []*atm.Switch
}

// ledgerOf collects a lab's ATM drivers and switches.
func ledgerOf(l *lab.Lab) cellLedger {
	var g cellLedger
	for _, h := range l.Hosts {
		g.drivers = append(g.drivers, h.ATMDriver)
	}
	if l.Fabric != nil {
		g.switches = append(append(g.switches, l.Fabric.Core), l.Fabric.Leaves...)
	}
	return g
}

// check reports every way the ledger fails to balance.
func (g cellLedger) check(t testing.TB, name string) {
	t.Helper()
	sent, ended := g.injected, int64(0)
	for i, d := range g.drivers {
		// Before any reader below receives what a peer's fibre holds.
		if n := d.Adapter.TxUndelivered(); n != 0 {
			t.Errorf("%s, adapter %d: %d cells still on the fibre at quiescence", name, i, n)
		}
	}
	for i, d := range g.drivers {
		a := d.Adapter
		sent += a.CellsSent
		ended += a.CellsRecv + a.CellsDropped
		popped := a.CellsRecv - int64(a.RxAvail())
		if got := d.HECErrors + d.CellsReassembled(); got != popped {
			t.Errorf("%s, driver %d: %d cells left the receive FIFO (%d admitted, %d waiting) but %d were discarded for HEC and %d reassembled",
				name, i, popped, a.CellsRecv, a.RxAvail(), d.HECErrors, d.CellsReassembled())
		}
	}
	for _, sw := range g.switches {
		ended += sw.CellsUnrouted + sw.CellsDropped + sw.HECErrors
		for p := 0; p < sw.NumPorts(); p++ {
			port := sw.Port(p)
			ended += port.DownDrops
			if n := port.TxUndelivered(); n != 0 {
				t.Errorf("%s, switch port %d: %d cells still on the fibre at quiescence", name, p, n)
			}
			if s, ok := port.Qdisc().(atm.Scheduler); ok {
				ended += int64(s.Len())
			}
		}
	}
	if sent != ended {
		t.Errorf("%s: %d cells sent, %d received, dropped for a counted cause or queued: %d unaccounted for",
			name, sent, ended, sent-ended)
	}
}

// linkRegimes are the link conditions the ledger is audited under: the
// four regimes a reliable-transport test table runs through — nothing
// wrong, the common case under loss, the rare heavy burst, and the worst
// case, where half of a bad burst's cells die, survivors overtake one
// another, and (with several senders converging) the receive FIFO
// overflows. Impaired links run serial only, as everywhere.
var linkRegimes = []struct {
	name  string
	worst bool
	apply func(cfg *lab.Config) // nil: an unimpaired link, the only kind that shards
}{
	{name: "ideal"},
	{name: "common loss", apply: func(cfg *lab.Config) { cfg.BurstLoss = sim.GEParams{LossGood: 0.002} }},
	{name: "rare heavy burst", apply: func(cfg *lab.Config) {
		cfg.BurstLoss = sim.GEParams{PGoodBad: 0.0005, PBadGood: 0.05, LossBad: 0.9}
	}},
	{name: "worst case", worst: true, apply: func(cfg *lab.Config) {
		cfg.BurstLoss = sim.GEParams{PGoodBad: 0.003, PBadGood: 0.1, LossBad: 0.5}
		cfg.ReorderRate, cfg.ReorderDepth = 0.004, 3
		cfg.MTU = 1500
	}},
}

// TestCellsAreConserved runs traffic to quiescence on every topology the
// testbed builds — the paper's pair, a hub under each egress discipline, a
// 64-host fat tree, a fat tree cut four ways — under each link regime, and
// balances the ledger. The converging bulk senders are what overflow a
// receive FIFO and a discipline's queue; the table must keep reaching both.
func TestCellsAreConserved(t *testing.T) {
	bulk := workload.Bulk{Bytes: 49152}
	fanIn := workload.FanIn{Requests: 3, Size: 1400, Warmup: 1}
	// Faults end cells too: a dark access link at the adapter and at the
	// switch port behind it, a failed port's torn-down routes as unrouted —
	// the rest of a frame already under way on a route when it goes. A
	// client's port fails, and the server's while a frame is under way.
	// So do bit flips: the HEC at the switch and at the host, the CRC-10
	// at the host.
	flaps, portFail, serverFail, flipped := fanIn, fanIn, fanIn, fanIn
	flaps.Requests, portFail.Requests, serverFail.Requests, flipped.Requests = 20, 20, 20, 20
	flaps.Faults = sim.LinkFlaps(7, []int{0, 2}, 8, 20*sim.Millisecond, 300*sim.Microsecond)
	portFail.Faults = sim.FaultSchedule{
		{At: 4 * sim.Millisecond, Kind: sim.FaultPortFail, Host: 3},
		{At: 9 * sim.Millisecond, Kind: sim.FaultLinkUp, Host: 3},
	}
	serverFail.Faults = sim.FaultSchedule{
		{At: 3 * sim.Millisecond, Kind: sim.FaultPortFail, Host: 0},
		{At: 9 * sim.Millisecond, Kind: sim.FaultLinkUp, Host: 0},
	}
	for i := 0; i < 8; i++ {
		flipped.Faults = append(flipped.Faults, sim.FaultEvent{
			At: sim.Time(i+1) * sim.Millisecond, Kind: sim.FaultWireFlip, Host: i % 4, Bit: i * 211})
	}
	topologies := []struct {
		name          string
		cfg           lab.Config
		hosts, shards int
		g             workload.Generator
	}{
		{name: "pair", hosts: 2, shards: 1, g: workload.Echo{Size: 8000, Iterations: 12, Warmup: 1}},
		{name: "hub, built-in drop-tail", hosts: 5, shards: 1, g: bulk},
		{name: "hub, droptail qdisc", cfg: lab.Config{Qdisc: lab.QdiscConfig{Kind: lab.QdiscDropTail, LimitCells: 96}}, hosts: 5, shards: 1, g: bulk},
		{name: "hub, RED", cfg: lab.Config{Qdisc: lab.QdiscConfig{Kind: lab.QdiscRED, LimitCells: 96}}, hosts: 5, shards: 1, g: bulk},
		{name: "hub, DRR", cfg: lab.Config{Qdisc: lab.QdiscConfig{Kind: lab.QdiscDRR, LimitCells: 96}}, hosts: 5, shards: 1, g: bulk},
		{name: "fat tree, 64 hosts", cfg: lab.Config{Fabric: lab.FabricFatTree, LeafPorts: 8, HashPCBs: true}, hosts: 64, shards: 1, g: fanIn},
		{name: "fat tree, 4 shards", cfg: lab.Config{Fabric: lab.FabricFatTree, LeafPorts: 4}, hosts: 17, shards: 4, g: fanIn},
		{name: "hub, RED, 4 shards", cfg: lab.Config{Qdisc: lab.QdiscConfig{Kind: lab.QdiscRED, LimitCells: 96}}, hosts: 5, shards: 4, g: bulk},
		{name: "hub, link flaps", hosts: 5, shards: 1, g: flaps},
		{name: "hub, port failure", hosts: 5, shards: 1, g: portFail},
		{name: "hub, server port failure", hosts: 5, shards: 1, g: serverFail},
		{name: "hub, wire flips", hosts: 5, shards: 1, g: flipped},
	}
	var overflows, worstOverflows, qdiscDrops, reordered, corrupted, dark, unrouted int64
	for _, tp := range topologies {
		for _, lr := range linkRegimes {
			if lr.apply != nil && tp.shards > 1 {
				continue
			}
			name := tp.name + ", " + lr.name
			cfg := tp.cfg
			cfg.Link, cfg.Seed = lab.LinkATM, 1994
			if lr.apply != nil {
				lr.apply(&cfg)
			}
			c, err := lab.NewCluster(cfg, tp.hosts, tp.shards)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := tp.g.Run(c.Lab); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			g := ledgerOf(c.Lab)
			g.check(t, name)
			for _, d := range g.drivers {
				overflows += d.Adapter.RxOverflows
				reordered += d.Adapter.CellsReordered
				corrupted += d.Adapter.CellsCorrupted
				if lr.worst && d.Adapter.CellsReordered > 0 {
					worstOverflows += d.Adapter.RxOverflows
				}
			}
			if cfg.Qdisc.Enabled() {
				qdiscDrops += c.Lab.Switch.CellsDropped
			}
			for _, sw := range g.switches {
				unrouted += sw.CellsUnrouted
				for p := 0; p < sw.NumPorts(); p++ {
					dark += sw.Port(p).DownDrops
				}
			}
		}
	}
	if overflows == 0 || worstOverflows == 0 || qdiscDrops == 0 || reordered == 0 || corrupted == 0 || dark == 0 || unrouted == 0 {
		t.Errorf("the table no longer reaches what it was built for: %d receive-FIFO overflows (%d at an adapter that also reordered, in the worst case), %d discipline drops, %d cells reordered, %d corrupted, %d dropped at a dark port, %d unrouted",
			overflows, worstOverflows, qdiscDrops, reordered, corrupted, dark, unrouted)
	}
}

// TestLedgerSeesALostCell is the ledger's own tripwire: a cell that
// vanishes without a counter — here one admitted to a receive FIFO and
// not counted — must unbalance it.
func TestLedgerSeesALostCell(t *testing.T) {
	c, err := lab.NewCluster(lab.Config{Link: lab.LinkATM, Seed: 3}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lab.RunEcho(1400, 4, 1); err != nil {
		t.Fatal(err)
	}
	g := ledgerOf(c.Lab)
	g.check(t, "balanced")
	c.Lab.Hosts[1].ATMAdapter.CellsRecv--
	var probe failRecorder
	g.check(&probe, "one cell short")
	if probe.errors != 2 {
		t.Errorf("a cell lost without a counter raised %d errors, want 2 (the fabric-wide sum and its driver's)", probe.errors)
	}
}

// failRecorder is a testing.TB that counts the errors reported to it.
type failRecorder struct {
	testing.TB
	errors int
}

func (f *failRecorder) Helper()                       {}
func (f *failRecorder) Errorf(string, ...interface{}) { f.errors++ }
