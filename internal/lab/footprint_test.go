package lab

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/atm"
	"repro/internal/cost"
	"repro/internal/sim"
)

// idleHeapBytes builds an idle nHosts fat-tree topology and returns the
// live heap it retains, measured as the HeapAlloc delta across the
// build. The lab is returned so the caller controls when it becomes
// garbage.
func idleHeapBytes(t *testing.T, nHosts int) (*Lab, uint64) {
	t.Helper()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l := NewTopology(Config{Link: LinkATM, Fabric: FabricFatTree}, nHosts)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return l, m1.HeapAlloc - m0.HeapAlloc
}

// maxIdleHostBytes pins the per-host footprint of an idle topology. A
// host is a kernel, an IP/TCP/UDP stack, an adapter, a driver, a switch
// port and three parked service processes — three allocations (the host
// with its kernel, stacks and their processes; the link's adapter and
// driver with theirs; the port; TestHostAllocations), measured ~3.3 KiB
// before any traffic; the bound is that plus half. What it has
// no headroom for is anything per pair or per peer: a pre-installed full
// VC mesh costs O(hosts) per host (at 1024 hosts, ~100 KiB each just in
// transmit segmenters), which trips the bound by an order of magnitude,
// and a kilobyte of private scratch per host trips it too.
const maxIdleHostBytes = 5 << 10

// TestIdleHostFootprint is the tentpole's memory contract: per-host cost
// of an idle topology is O(1) — no term that grows with the number of
// hosts. It measures the marginal bytes/host between a small and a large
// idle lab (subtracting out fixed overhead shared by both) and checks
// the large lab holds no per-pair state anywhere: switch tables, fabric
// routes, driver VC caches, and reassembler maps must all be empty
// until traffic creates them.
func TestIdleHostFootprint(t *testing.T) {
	small, smallBytes := idleHeapBytes(t, 64)
	runtime.KeepAlive(small)
	large, largeBytes := idleHeapBytes(t, 1024)

	perHost := (float64(largeBytes) - float64(smallBytes)) / float64(1024-64)
	t.Logf("idle footprint: %d hosts = %.1f MiB, marginal %.1f KiB/host",
		1024, float64(largeBytes)/(1<<20), perHost/(1<<10))
	if perHost > maxIdleHostBytes {
		t.Errorf("idle topology costs %.0f bytes/host, want <= %d — per-host state is growing with topology size",
			perHost, maxIdleHostBytes)
	}

	// Sparsity: nothing pairwise exists before traffic.
	if got := large.Fabric.TotalVCs(); got != 0 {
		t.Errorf("idle fabric holds %d switch VC entries, want 0", got)
	}
	if got := large.Fabric.NumRoutes(); got != 0 {
		t.Errorf("idle fabric holds %d routes, want 0", got)
	}
	for i, h := range large.Hosts {
		if h.ATMDriver.NumTxVCs() != 0 || h.ATMDriver.NumReassemblers() != 0 {
			t.Fatalf("idle host %d holds %d tx VCs, %d reassemblers; want 0",
				i, h.ATMDriver.NumTxVCs(), h.ATMDriver.NumReassemblers())
		}
	}
	runtime.KeepAlive(small)
	runtime.KeepAlive(large)
}

// TestHostAllocations pins what building a host costs the heap: an ATM
// host is its Host block (the kernel and the IP, TCP and UDP stacks, each
// holding its service process), its link block (the adapter and the
// driver with its receive process) and its switch port; an Ethernet host
// is the first two — thirteen and twelve before they were built in place.
// Hosts are built many to a loop and the loop is run
// until every service process has parked, so the only other allocations
// are the growth of what every host appends to — the switch's port list,
// the loop's start queue — a few hundredths a host.
func TestHostAllocations(t *testing.T) {
	const n = 1024
	model := cost.DECstation5000()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		link LinkKind
		want float64
	}{{LinkATM, 3}, {LinkEther, 2}} {
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
