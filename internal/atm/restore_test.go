package atm_test

import (
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPortRestoreReinstallsRoutes fails a host's switch access port and
// brings it back, on a hub and across a fat tree's spine, and requires
// the fan-in to recover whole: every request completes with its bytes
// intact, no cell is unrouted once the port is back, and the ledger
// balances. A port failure removes every route through the port; a
// peer's next datagram must reinstall its flow on demand, never keep
// sending on the channel the network tore down.
func TestPortRestoreReinstallsRoutes(t *testing.T) {
	const failAt, upAt = 4 * sim.Millisecond, 9 * sim.Millisecond
	for _, tc := range []struct {
		name  string
		cfg   lab.Config
		hosts int
		fail  int
	}{
		{name: "hub, a client's port", hosts: 5, fail: 3},
		{name: "hub, the server's port", hosts: 5, fail: 0},
		{name: "fat tree, a client across the spine", cfg: lab.Config{Fabric: lab.FabricFatTree, LeafPorts: 4}, hosts: 9, fail: 5},
		{name: "fat tree, the server's port", cfg: lab.Config{Fabric: lab.FabricFatTree, LeafPorts: 4}, hosts: 9, fail: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Link, cfg.Seed = lab.LinkATM, 1994
			c, err := lab.NewCluster(cfg, tc.hosts, 1)
			if err != nil {
				t.Fatal(err)
			}
			l := c.Lab
			g := workload.FanIn{Requests: 20, Size: 1400, Warmup: 1, Faults: sim.FaultSchedule{
				{At: failAt, Kind: sim.FaultPortFail, Host: tc.fail},
				{At: upAt, Kind: sim.FaultLinkUp, Host: tc.fail},
			}}
			ledger := ledgerOf(l)
			unrouted := func() int64 {
				n := int64(0)
				for _, sw := range ledger.switches {
					n += sw.CellsUnrouted
				}
				return n
			}
			atRestore := int64(-1)
			l.Env.At(upAt+sim.Microsecond, "sample", func() { atRestore = unrouted() })
			res, err := g.Run(l)
			if err != nil {
				t.Fatalf("the fan-in did not recover from the port failure: %v", err)
			}
			clients := tc.hosts - 1
			if res.Requests != clients*g.Requests || res.Errors != 0 {
				t.Fatalf("%d of %d requests completed, %d with damaged payloads", res.Requests, clients*g.Requests, res.Errors)
			}
			if atRestore < 0 {
				t.Fatal("the run ended before the port came back")
			}
			if end := unrouted(); end != atRestore {
				t.Fatalf("%d cells unrouted after the port came back (%d before)", end-atRestore, atRestore)
			}
			if l.Fabric.VCsSetUp() == int64(l.Fabric.NumRoutes()) {
				t.Fatal("the port failure removed no route; the test no longer fails a port with traffic on it")
			}
			ledger.check(t, tc.name)
		})
	}
}
