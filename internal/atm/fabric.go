package atm

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/sim"
)

// Routed fabrics: multi-switch ATM topologies with on-demand VC setup.
//
// The paper's testbed is two hosts on one fiber; scaling its workloads to
// thousands of hosts needs a switched fabric, and building that fabric
// eagerly costs O(hosts²) VC state — the reason large topologies used to
// exhaust memory before simulating a single cell. A Fabric instead keeps
// only a routing view of the topology (which switch and port each host
// sits on) and installs a flow's VC path through the switches the first
// time a datagram heads to that destination, asked by the driver, which
// keeps a pointer back to its fabric and its host number there.
// Signaling is modeled as instantaneous, so the lazily built
// fabric is event-for-event identical to an eagerly meshed one; what
// changes is that memory follows *active* communication pairs.

// FabricKind selects the switch arrangement of a routed fabric.
type FabricKind int

const (
	// FabricHub is a single switch with every host attached — the
	// classic hub-and-spoke building network, and the shape whose
	// single-switch behaviour must stay bit-identical to the old eager
	// mesh.
	FabricHub FabricKind = iota
	// FabricFatTree is a two-level tree: hosts attach to leaf switches
	// (LeafPorts per leaf), and every leaf trunks to one spine switch.
	// Cross-leaf flows traverse leaf → spine → leaf and contend for the
	// trunk links, as in a building backbone.
	FabricFatTree
)

// String names the fabric kind for labels and errors.
func (k FabricKind) String() string {
	switch k {
	case FabricHub:
		return "hub"
	case FabricFatTree:
		return "fattree"
	default:
		return fmt.Sprintf("FabricKind(%d)", int(k))
	}
}

// DefaultLeafPorts is the fat-tree hosts-per-leaf when the caller does
// not choose one: the port count of a mid-90s workgroup ATM switch.
const DefaultLeafPorts = 64

// flowKey identifies a unidirectional host-to-host flow by host index.
type flowKey struct{ src, dst int }

// hop is one switch VC entry on a flow's path, with the allocator to
// refund when the path is torn down (nil for fixed host-link VCIs).
type hop struct {
	sw    *Switch
	alloc *vciAlloc
	port  int32
	vci   uint16
}

// route is an installed flow path: the VCI the source host transmits on,
// the VCI the destination host receives on (naming the source, as the
// legacy mesh did), and the switch entries in path order — one on a
// single switch, three across a fat tree — in hops[:n], so that a route
// is one allocation.
type route struct {
	hops         [3]hop
	n            uint8
	txVCI, rxVCI uint16
}

// add appends h to the path.
func (rt *route) add(h hop) {
	rt.hops[rt.n] = h
	rt.n++
}

// routeTable is one shard's installed flow paths: the flow map, and the
// routes it points to in a slab, where a removed route's slot goes to the
// next install. A route never moves while installed — a staged install
// holds its *route until the barrier applies it — so a full slab is
// replaced, not grown (see slabChunk).
type routeTable struct {
	m    map[flowKey]*route
	slab []route
	free []*route // removed routes, zeroed
}

// add makes the route for key, which must not be installed.
func (t *routeTable) add(key flowKey) *route {
	var rt *route
	if n := len(t.free); n > 0 {
		rt, t.free = t.free[n-1], t.free[:n-1]
	} else {
		if len(t.slab) == cap(t.slab) {
			t.slab = make([]route, 0, slabChunk(cap(t.slab)))
		}
		t.slab = t.slab[:len(t.slab)+1]
		rt = &t.slab[len(t.slab)-1]
	}
	t.m[key] = rt
	return rt
}

// del forgets key's route rt and frees its slot.
func (t *routeTable) del(key flowKey, rt *route) {
	delete(t.m, key)
	*rt = route{}
	t.free = append(t.free, rt)
}

// fabricHost locates one host in the fabric.
type fabricHost struct {
	drv  *Driver
	sw   *Switch
	leaf int // leaf index, or -1 on a hub
	port int // host's port on sw
}

// Fabric is a routed multi-switch topology over a set of host drivers.
// It owns the switches, knows where every host attaches, and serves its
// drivers' VC misses and idle-VC reclaims (setup, teardown): VC paths
// through the switches exist only for flows that have actually carried
// traffic.
type Fabric struct {
	Kind FabricKind
	// Core is the single switch of a hub fabric or the spine of a
	// fat tree; Leaves are the fat tree's leaf switches (nil for a hub).
	Core   *Switch
	Leaves []*Switch

	hosts  []fabricHost
	byAddr map[uint32]int

	// leafUp[i] is leaf i's trunk port toward the spine; coreDown[i] is
	// the spine's port toward leaf i.
	leafUp   []int
	coreDown []int

	// plan is the shard wiring the fabric was built across (one env for a
	// serial fabric). routes remembers every installed flow path,
	// partitioned by the *source* host's shard so that concurrent shards
	// never touch one map. It survives testbed Reset — routing is topology
	// once installed — which makes setup idempotent: a driver whose
	// on-demand transmit state was dropped by Reset re-requests the path
	// and gets the existing one back, with no switch-table or VCI-allocator
	// churn.
	plan   *ShardPlan
	routes []routeTable

	// VCsTornDown counts path reclaims over the route memory's life (which
	// spans Resets); they only happen on one-env fabrics, see oneEnv.
	VCsTornDown int64
}

// CellDest is a shard-boundary delivery target — the far end of a cut
// fiber. The cluster coordinator injects each staged cell into the
// destination shard through it at the staged arrival time.
type CellDest interface{ InjectCell(c Cell) }

// ShardPlan says which event loop every piece of a fabric runs on. A
// serial fabric is the plan with one env and an all-zero HostShard:
// nothing is cut, so the stage hooks are never called and may stay nil.
// With more envs the plan wires the fabric across shard boundaries for
// deterministic parallel execution (lab.Cluster). Fibers whose two ends
// land in different shards are cut: the sending side stages each cell with
// the coordinator instead of delivering it, and VC-table installs that
// touch switches outside the calling host's shard are staged as control
// mutations the coordinator applies at the next round barrier — before
// any staged cell, and strictly before the first data cell of the flow
// can cross the cut (the cut itself delays that cell by at least the
// lookahead, so the install is always in place first).
type ShardPlan struct {
	// Envs[s] is shard s's event loop. Shard 0 also hosts the core
	// switch (hub or spine).
	Envs []*sim.Env
	// HostShard[i] is the shard of host i. For a fat tree the partition
	// must be leaf-aligned: every host of one leaf in one shard.
	HostShard []int
	// StageCell stages one cell crossing from srcShard to dstShard. at is
	// the far-end arrival time, and scheduleAt is when the serial run
	// would have created the arrival event — the coordinator's tie-break
	// among equal arrivals (see Port.SetCut).
	StageCell func(srcShard, dstShard int, scheduleAt, at sim.Time, to CellDest, c Cell)
	// StageCtl stages a control mutation for the coordinator to apply at
	// the next round barrier, before any staged cell is injected.
	StageCtl func(srcShard int, apply func())
}

// NewFabric builds the switches for kind across the plan's event loops,
// attaches every driver's adapter, and points each driver back at the
// fabric for its on-demand VCs: the core (hub or spine) lives in shard
// 0's environment, each fat-tree leaf in its hosts' shard, and every
// fiber crossing a shard boundary is cut (see ShardPlan). leafPorts only matters for
// FabricFatTree; zero means DefaultLeafPorts. The model prices every
// link, as Reset does again for the next trial's model.
func NewFabric(plan *ShardPlan, kind FabricKind, model *cost.Model, leafPorts int, drvs []*Driver) *Fabric {
	f := &Fabric{
		Kind:   kind,
		hosts:  make([]fabricHost, len(drvs)),
		byAddr: make(map[uint32]int, len(drvs)),
		plan:   plan,
		routes: make([]routeTable, len(plan.Envs)),
	}
	for s := range f.routes {
		f.routes[s].m = make(map[flowKey]*route)
	}
	switch kind {
	case FabricHub:
		f.Core = newSwitch(plan.Envs[0], len(drvs))
		for i, d := range drvs {
			port := f.Core.AttachPort(d.Adapter)
			f.hosts[i] = fabricHost{drv: d, sw: f.Core, leaf: -1, port: port}
			if s := plan.HostShard[i]; s != 0 {
				cutFiber(plan, s, d.Adapter, f.Core.ports[port])
			}
		}
	case FabricFatTree:
		if leafPorts <= 0 {
			leafPorts = DefaultLeafPorts
		}
		nLeaves := (len(drvs) + leafPorts - 1) / leafPorts
		f.Core = newSwitch(plan.Envs[0], nLeaves)
		f.Leaves = make([]*Switch, nLeaves)
		f.leafUp = make([]int, nLeaves)
		f.coreDown = make([]int, nLeaves)
		for li := range f.Leaves {
			ls := plan.HostShard[li*leafPorts]
			hosts := min(leafPorts, len(drvs)-li*leafPorts)
			leaf := newSwitch(plan.Envs[ls], hosts+1) // and the trunk
			f.Leaves[li] = leaf
			for i := li * leafPorts; i < (li+1)*leafPorts && i < len(drvs); i++ {
				if plan.HostShard[i] != ls {
					panic(fmt.Sprintf("atm: host %d on leaf %d is in shard %d, leaf is in shard %d (partition must be leaf-aligned)",
						i, li, plan.HostShard[i], ls))
				}
				port := leaf.AttachPort(drvs[i].Adapter)
				f.hosts[i] = fabricHost{drv: drvs[i], sw: leaf, leaf: li, port: port}
			}
			f.leafUp[li], f.coreDown[li] = ConnectTrunk(leaf, f.Core, model)
			if ls != 0 {
				cutFiber(plan, ls, leaf.ports[f.leafUp[li]], f.Core.ports[f.coreDown[li]])
			}
		}
	default:
		panic(fmt.Sprintf("atm: unknown fabric kind %d", int(kind)))
	}
	for i, d := range drvs {
		f.byAddr[d.IP.Addr] = i
		d.fabric, d.host = f, i
	}
	return f
}

// cutEnd is one end of a fiber that can cross a shard boundary — a host
// adapter or a switch port: it stages its egress and takes injected
// arrivals.
type cutEnd interface {
	CellDest
	SetCut(stage func(scheduleAt, at sim.Time, c Cell))
}

// cutFiber cuts the fiber between near (in shard s) and far (in shard 0,
// with the core) in both directions.
func cutFiber(plan *ShardPlan, s int, near, far cutEnd) {
	near.SetCut(func(scheduleAt, at sim.Time, c Cell) {
		plan.StageCell(s, 0, scheduleAt, at, far, c)
	})
	far.SetCut(func(scheduleAt, at sim.Time, c Cell) {
		plan.StageCell(0, s, scheduleAt, at, near, c)
	})
}

// NumHosts returns how many hosts the fabric serves.
func (f *Fabric) NumHosts() int { return len(f.hosts) }

// NumRoutes returns how many flow paths are currently installed — the
// fabric-wide measure of active communication pairs.
func (f *Fabric) NumRoutes() int {
	n := 0
	for s := range f.routes {
		n += len(f.routes[s].m)
	}
	return n
}

// VCsSetUp returns how many flow paths have ever been installed: those
// standing plus those torn down.
func (f *Fabric) VCsSetUp() int64 { return int64(f.NumRoutes()) + f.VCsTornDown }

// TotalVCs sums the VC table entries across every switch in the fabric.
func (f *Fabric) TotalVCs() int {
	n := f.Core.NumVCs()
	for _, leaf := range f.Leaves {
		n += leaf.NumVCs()
	}
	return n
}

// Reset rewinds every switch for testbed reuse and prices every link —
// host ports and trunks alike — from the next trial's model, as NewFabric
// priced them from the first. Installed routes survive (see the routes
// field).
func (f *Fabric) Reset(model *cost.Model) {
	f.Core.Reset()
	f.Core.price(model)
	for _, leaf := range f.Leaves {
		leaf.Reset()
		leaf.price(model)
	}
}

// setup installs (or finds) the VC path from host src to the host owning
// dstAddr and returns the VCI src transmits on. Host-facing links keep
// the legacy source-naming convention — src transmits on DefaultVCI+dst,
// the destination receives on DefaultVCI+src — so a hub fabric's wire
// bytes are byte-identical to the old eager mesh. Trunk hops use
// per-link allocated VCIs, invisible to hosts.
//
// Hops on switches inside the caller's shard install immediately; the
// remainder of the path is staged for the coordinator to install at the
// next round barrier. The staged install always lands before the flow's
// first data cell can reach those switches: that cell must itself cross
// a cut, which delays it past the barrier. On a one-env plan every
// switch is in the caller's shard, so nothing is ever staged.
//
// Trunk VCIs allocated by the coordinator are deterministic — barrier
// apply order is (shard, staging order), a pure function of the
// simulation — but not necessarily the numbers a serial run would pick.
// That is invisible: VCI values appear in no result, trace, or counter;
// only the path shape and timing do, and those are identical.
func (f *Fabric) setup(src int, dstAddr uint32) (uint16, bool) {
	dst, ok := f.byAddr[dstAddr]
	if !ok || dst == src {
		return 0, false
	}
	s := f.plan.HostShard[src]
	rm := &f.routes[s]
	key := flowKey{src, dst}
	if rt, ok := rm.m[key]; ok {
		return rt.txVCI, true
	}
	hs, hd := &f.hosts[src], &f.hosts[dst]
	rt := rm.add(key)
	rt.txVCI, rt.rxVCI = DefaultVCI+uint16(dst), DefaultVCI+uint16(src)
	env := f.plan.Envs[s]
	if hs.sw == hd.sw {
		// Same switch (hub, or two hosts on one leaf): a single entry,
		// staged only when that switch lives in another shard.
		if hs.sw.env == env {
			hs.sw.AddVC(hs.port, rt.txVCI, hd.port, rt.rxVCI)
		} else {
			sw, in, inVCI, out, outVCI := hs.sw, hs.port, rt.txVCI, hd.port, rt.rxVCI
			f.plan.StageCtl(s, func() { sw.AddVC(in, inVCI, out, outVCI) })
		}
		rt.add(hop{sw: hs.sw, port: int32(hs.port), vci: rt.txVCI})
	} else {
		// Cross-leaf: leaf(src) → spine → leaf(dst), one allocated VCI
		// per trunk hop (the reassembler demultiplexes on VCI alone, so
		// flows sharing a trunk cannot share one). The source leaf always
		// lives in the caller's shard (leaf-aligned partition), so the
		// first hop — and the up-trunk VCI the first data cell must carry
		// — installs immediately; the staged installs below add theirs to
		// the route's array at the barrier.
		up, down := f.leafUp[hs.leaf], f.coreDown[hd.leaf]
		upAlloc := hs.sw.ports[up].vci
		downAlloc := f.Core.ports[down].vci
		v1 := upAlloc.get()
		hs.sw.AddVC(hs.port, rt.txVCI, up, v1)
		rt.add(hop{sw: hs.sw, port: int32(hs.port), vci: rt.txVCI})
		coreIn, leafIn := f.coreDown[hs.leaf], f.leafUp[hd.leaf]
		// A hop may wait for the barrier only when its switch sits behind
		// a cut from the caller — then the flow's first data cell, which
		// must cross that same cut, cannot beat the install. A hop inside
		// the caller's shard is reachable within the current window, so it
		// must install now; deferring it drops the first cells as unrouted.
		if f.Core.env == env {
			// Shard-0 source: the spine is in this shard, install it now.
			v2 := downAlloc.get()
			f.Core.AddVC(coreIn, v1, down, v2)
			rt.add(hop{sw: f.Core, port: int32(coreIn), vci: v1, alloc: upAlloc})
			if hd.sw.env == env {
				hd.sw.AddVC(leafIn, v2, hd.port, rt.rxVCI)
				rt.add(hop{sw: hd.sw, port: int32(leafIn), vci: v2, alloc: downAlloc})
			} else {
				dleaf, dport, rx := hd.sw, hd.port, rt.rxVCI
				f.plan.StageCtl(s, func() {
					dleaf.AddVC(leafIn, v2, dport, rx)
					rt.add(hop{sw: dleaf, port: int32(leafIn), vci: v2, alloc: downAlloc})
				})
			}
		} else {
			// The spine is behind the caller's trunk cut, and every cell
			// toward the destination leaf passes through it first — so the
			// whole remainder can wait for the barrier, even when the
			// destination leaf shares the caller's shard.
			core, dleaf, dport, rx := f.Core, hd.sw, hd.port, rt.rxVCI
			f.plan.StageCtl(s, func() {
				v2 := downAlloc.get()
				core.AddVC(coreIn, v1, down, v2)
				dleaf.AddVC(leafIn, v2, dport, rx)
				rt.add(hop{sw: core, port: int32(coreIn), vci: v1, alloc: upAlloc})
				rt.add(hop{sw: dleaf, port: int32(leafIn), vci: v2, alloc: downAlloc})
			})
		}
	}
	return rt.txVCI, true
}

// oneEnv guards the operations that remove routes: tearing a path down
// at a barrier boundary would unroute cells the serial run delivered,
// breaking bit-identity, so above one env they fail loudly instead.
// (Teardown only fires under Driver.TxVCLimit, which no sharded workload
// sets, and sharded runs reject port-failure faults at scheduling.)
func (f *Fabric) oneEnv(op string, host int) *routeTable {
	if n := len(f.plan.Envs); n > 1 {
		panic(fmt.Sprintf("atm: %s for host %d on a fabric sharded %d ways; routes are only removed on one event loop (TxVCLimit must stay 0 and port failures are refused under sharding)", op, host, n))
	}
	return &f.routes[0]
}

// teardown removes the flow path from host src to the host owning
// dstAddr: every switch entry goes away, trunk VCIs return to their
// links' pools, and the destination's reassembly context is reclaimed
// (unless a datagram is mid-flight on it, in which case the context
// stays until the channel is next reclaimed). Cells still crossing the
// fabric on the torn-down path are discarded as unrouted — reclamation
// under TxVCLimit is deliberately the behaviour of a real switched
// network reprovisioning a channel, and transports recover by
// retransmitting (which re-installs the path).
func (f *Fabric) teardown(src int, dstAddr uint32) {
	rm := f.oneEnv("VC teardown", src)
	dst, ok := f.byAddr[dstAddr]
	if !ok {
		return
	}
	key := flowKey{src, dst}
	if rt, ok := rm.m[key]; ok {
		f.removeRoute(rm, key, rt)
	}
}

// removeRoute is teardown's working half, shared with port-failure
// reclamation: remove every switch entry, refund trunk VCIs, reclaim the
// destination's reassembly context, forget the route.
func (f *Fabric) removeRoute(rm *routeTable, key flowKey, rt *route) {
	for _, h := range rt.hops[:rt.n] {
		h.sw.RemoveVC(int(h.port), h.vci)
		if h.alloc != nil {
			h.alloc.put(h.vci)
		}
	}
	f.hosts[key.dst].drv.DropRx(rt.rxVCI)
	rm.del(key, rt)
	f.VCsTornDown++
}

// HostPort returns host i's access port on its switch (the hub core or
// its fat-tree leaf).
func (f *Fabric) HostPort(i int) *Port {
	h := &f.hosts[i]
	return h.sw.ports[h.port]
}

// FailHostPort fails host i's switch access port (fault injection): the
// port goes down, and every installed VC path with i as source or
// destination is torn down — switch entries removed, trunk VCIs
// refunded — exactly as idle-VC reclamation would. Peers recover through
// the same on-demand machinery: their next retransmission re-requests
// the path on a VC miss and gets a fresh install once the port is
// restored.
func (f *Fabric) FailHostPort(i int) {
	rm := f.oneEnv("FailHostPort", i)
	f.HostPort(i).SetDown(true)
	keys := make([]flowKey, 0, 8)
	for k := range rm.m {
		if k.src == i || k.dst == i {
			keys = append(keys, k)
		}
	}
	// Map iteration order is random; reclaim in canonical order so VCI
	// pool refunds (and thus later allocations) stay deterministic.
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].src != keys[b].src {
			return keys[a].src < keys[b].src
		}
		return keys[a].dst < keys[b].dst
	})
	for _, k := range keys {
		f.removeRoute(rm, k, rm.m[k])
	}
}

// RestoreHostPort brings a failed access port back; torn-down paths
// reinstall on demand when traffic next flows.
func (f *Fabric) RestoreHostPort(i int) {
	f.HostPort(i).SetDown(false)
}
