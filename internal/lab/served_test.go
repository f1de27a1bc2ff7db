package lab_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// servedFatTree builds an nHosts fat tree, has every client make one
// staggered request of host 0 — the 10k fan-in benchmark's shape — and
// returns the lab with what that cost: the live heap it retains once
// drained and the heap allocations it made, construction included, with
// the collector held off while counting.
func servedFatTree(t *testing.T, nHosts int) (l *lab.Lab, live, mallocs uint64) {
	t.Helper()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l = lab.NewTopology(lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, Seed: 1994, HashPCBs: true}, nHosts)
	gen := workload.FanIn{Size: 200, Requests: 1, Stagger: 5000 * sim.Microsecond, Stats: stats.Config{Streaming: true}}
	res, err := gen.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != nHosts-1 || res.Errors != 0 {
		t.Fatalf("%d of %d requests, %d errors", res.Requests, nHosts-1, res.Errors)
	}
	runtime.ReadMemStats(&m1)
	mallocs = m1.Mallocs - m0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return l, m1.HeapAlloc - m0.HeapAlloc, mallocs
}

// TestServedHostFootprint is the memory contract for hosts that have
// carried traffic, beside TestIdleHostFootprint's for hosts that have
// not: what a host needs only while a datagram is in flight — reassembly
// and segmentation buffers, FIFO and transmit-queue storage, recycled
// mbufs — belongs to the event loop (sim.Arena, the shared mbuf
// free-lists), so having served a request leaves a host barely heavier
// than idle. With each host keeping its own warm copies the marginal
// served host measured ~10 KiB and a request ~168 allocations, host and
// connection construction included; the memory bound sits between that
// and the ~4.2 KiB measured now. The allocation bound is the ~5.4
// measured once a request allocated its two connection ends and nothing
// else but the host it runs on and its share of the switch tables' growth
// (docs/PERFORMANCE.md item 23; ~18.0 before, ~36.6 before a host became
// two allocations, ~60 before a connection became one allocation an end)
// plus 15 %. Any per-request object coming back trips it — a route, a VC
// entry, a client's frame, buffer or conn, an echo handler, a queue's
// growth — as do two a connection end, which tcp.TestConnIsOneAllocation
// catches first; TestHostAllocations pins the host and
// alloccensus.TestFanInCensus names the sites.
func TestServedHostFootprint(t *testing.T) {
	const small, large = 64, 1024
	ls, liveS, mallocsS := servedFatTree(t, small)
	ll, liveL, mallocsL := servedFatTree(t, large)

	perHost := (float64(liveL) - float64(liveS)) / (large - small)
	perReq := (float64(mallocsL) - float64(mallocsS)) / (large - small)
	t.Logf("served footprint: %d hosts = %.1f MiB, marginal %.2f KiB/host, %.1f allocations/request",
		large, float64(liveL)/(1<<20), perHost/(1<<10), perReq)
	if perHost > 7<<10 {
		t.Errorf("a served host keeps %.0f bytes, want <= %d — in-flight scratch is staying with the host", perHost, 7<<10)
	}
	maxReq := 6.25
	if raceEnabled {
		maxReq = 13 // the race runtime's own, ~6 a request: ~11.4 measured, (5.4+6) × 1.15 allowed
	}
	if perReq > maxReq {
		t.Errorf("a request costs %.1f allocations, want <= %v", perReq, maxReq)
	}
	for _, l := range []*lab.Lab{ls, ll} {
		if n := l.Env.Arena().Outstanding(); n != 0 {
			t.Errorf("%d-host run left %d arena buffers checked out", len(l.Hosts), n)
		}
	}
	runtime.KeepAlive(ls)
	runtime.KeepAlive(ll)
}
