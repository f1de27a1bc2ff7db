package lab

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/atm"
	"repro/internal/cost"
	"repro/internal/sim"
)

// TestIdleHostFootprint is the topology's sparsity contract: nothing
// pairwise exists before traffic — no switch VC entry, fabric route (a
// route is its source's transmit channel) or reassembler — so an idle
// host costs the same at any topology size. What the idle hosts do cost,
// site by site, is cmd/alloccensus's idle golden.
func TestIdleHostFootprint(t *testing.T) {
	l := NewTopology(Config{Link: LinkATM, Fabric: FabricFatTree}, 1024)
	if got := l.Fabric.TotalVCs(); got != 0 {
		t.Errorf("idle fabric holds %d switch VC entries, want 0", got)
	}
	if got := l.Fabric.NumRoutes(); got != 0 {
		t.Errorf("idle fabric holds %d routes, want 0", got)
	}
	for i, h := range l.Hosts {
		if n := l.Fabric.NumRoutesFrom(i); n != 0 || h.ATMDriver.NumReassemblers() != 0 {
			t.Fatalf("idle host %d sources %d routes, holds %d reassemblers; want 0",
				i, n, h.ATMDriver.NumReassemblers())
		}
	}
}

// TestHostAllocations pins what building a host costs the heap: its Host
// block (the kernel and the IP, TCP and UDP stacks, each holding its
// service process) and its link block (the adapter and the driver with
// its receive process) — thirteen and twelve before they were built in
// place, and three on ATM until a switch kept its ports in a slab. Hosts
// are built many to a loop and the loop is run until every service
// process has parked, so the only other allocations are the growth of
// what every host appends to — the switch's port slab and index, the
// loop's start queue — a few hundredths a host.
func TestHostAllocations(t *testing.T) {
	const n = 1024
	model := cost.DECstation5000()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		link LinkKind
		want float64
	}{{LinkATM, 2}, {LinkEther, 2}} {
		env := sim.NewEnv()
		sw := atm.NewSwitch(env)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			if h := buildHost(env, model, tc.link, i); h.ATMAdapter != nil {
				sw.AttachPort(h.ATMAdapter)
			}
		}
		env.Run()
		runtime.ReadMemStats(&m1)
		perHost := float64(m1.Mallocs-m0.Mallocs) / n
		t.Logf("%v: %.3f allocations a host", tc.link, perHost)
		if perHost < tc.want || perHost >= tc.want+0.1 {
			t.Errorf("%v host costs %.3f allocations, want %v (and under a tenth of growth)", tc.link, perHost, tc.want)
		}
	}
}

// TestFabricShapeGuardOnReset pins the testbed-reuse contract for routed
// fabrics: a warm lab can only be reset to a configuration with the same
// fabric shape — silently reusing a hub lab for a fat-tree trial would
// run the trial on the wrong wiring.
func TestFabricShapeGuardOnReset(t *testing.T) {
	l := NewTopology(Config{Link: LinkATM, Fabric: FabricHub}, 3)
	l.Env.Run() // drain startup events; Reset requires a quiet loop
	if err := l.Reset(Config{Link: LinkATM, Fabric: FabricFatTree}, 0); err == nil {
		t.Fatal("Reset accepted a fabric-shape change")
	}
	if err := l.Reset(Config{Link: LinkATM, Fabric: FabricHub, LeafPorts: 8}, 0); err == nil {
		t.Fatal("Reset accepted a leaf-port change")
	}
	if err := l.Reset(Config{Link: LinkATM, Fabric: FabricHub}, 0); err != nil {
		t.Fatalf("Reset rejected the matching shape: %v", err)
	}
}
